#include "workload/sim_register_group.hpp"

#include <algorithm>
#include <utility>

#include "core/twobit_process.hpp"

namespace tbr {

// ---- ClientImpl: the unified client API over the simulator -------------------
//
// Issue = start the protocol op with a completion capturing two pointers
// (std::function inline storage); park = drive the event loop until the
// op's ready flag rises. Submit-side failures (crashed target) complete
// synchronously with a non-ok Status. Heap-held so client handles stay
// valid across moves of the owning group.

class SimRegisterGroup::ClientImpl final : public RegisterClientEngine {
 public:
  ClientImpl(SimNetwork& net, GroupConfig cfg)
      : net_(&net), cfg_(std::move(cfg)), client_(*this) {}

  std::uint32_t client_nodes() const override { return cfg_.n; }
  ProcessId client_writer() const override { return cfg_.writer; }

  ProcessId client_pick_reader() override {
    return rotor_.pick(cfg_.n,
                       [this](ProcessId r) { return net_->crashed(r); });
  }

  void client_issue(OpState& st) override {
    if (net_->crashed(st.node)) {
      st.owner->complete_failed(
          st, Status(StatusCode::kCrashed, st.kind == OpKind::kWrite
                                               ? "writer has crashed"
                                               : "reader has crashed"));
      return;
    }
    st.start = net_->now();
    auto& proc = net_->process_as<RegisterProcessBase>(st.node);
    if (st.kind == OpKind::kWrite) {
      proc.start_write(net_->context(st.node), std::move(st.value),
                       [this, &st] {
                         st.result.latency = net_->now() - st.start;
                         st.owner->complete(st);
                       });
    } else {
      proc.start_read(net_->context(st.node),
                      [this, &st](const Value& v, SeqNo index) {
                        st.result.value = v;  // copy into pooled capacity
                        st.result.version = index;
                        st.result.latency = net_->now() - st.start;
                        st.owner->complete(st);
                      });
    }
  }

  void client_park(OpState& st, OpPool& /*pool*/) override {
    const bool ok = net_->run_until(
        [&st] { return st.ready.load(std::memory_order_acquire); });
    if (!ok) {
      st.result.status =
          Status(StatusCode::kLivenessLost,
                 "register group cannot complete the operation "
                 "(crashed quorum or stuck run)");
    }
  }

  RegisterClient& client() noexcept { return client_; }

 private:
  SimNetwork* net_;
  GroupConfig cfg_;
  ReaderRotor rotor_;
  RegisterClient client_;
};

SimRegisterGroup::SimRegisterGroup(SimRegisterGroup&&) noexcept = default;
SimRegisterGroup& SimRegisterGroup::operator=(SimRegisterGroup&&) noexcept =
    default;
SimRegisterGroup::~SimRegisterGroup() = default;

RegisterClient& SimRegisterGroup::client() {
  if (!client_impl_) {
    client_impl_ = std::make_unique<ClientImpl>(*net_, cfg_);
  }
  return client_impl_->client();
}

SimRegisterGroup::SimRegisterGroup(Options options)
    : cfg_(std::move(options.cfg)), algo_(options.algo) {
  cfg_.validate();
  SimNetwork::Options net_opt;
  net_opt.seed = options.seed;
  net_opt.delay = options.delay ? std::move(options.delay)
                                : make_constant_delay(kDefaultDelta);
  net_opt.loss_rate = options.loss_rate;
  net_opt.service_time = options.service_time;
  net_opt.track_in_flight = options.track_in_flight;
  if (options.recover_factory) {
    net_opt.recover_factory = [cfg = cfg_,
                               make = std::move(options.recover_factory)](
                                  ProcessId pid) {
      return make(cfg, pid);
    };
  } else if (algo_ == Algorithm::kTwoBit && !options.process_factory) {
    net_opt.recover_factory = [cfg = cfg_](ProcessId pid) {
      TwoBitOptions opt;
      opt.recover_via_catchup = true;
      return std::make_unique<TwoBitProcess>(cfg, pid, opt);
    };
  }
  std::vector<std::unique_ptr<ProcessBase>> group;
  if (options.process_factory) {
    group.reserve(cfg_.n);
    for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
      group.push_back(options.process_factory(cfg_, pid));
    }
  } else {
    group = make_register_group(algo_, cfg_);
  }
  net_ = std::make_unique<SimNetwork>(std::move(group), std::move(net_opt));
}

RegisterProcessBase& SimRegisterGroup::process(ProcessId pid) {
  return net_->process_as<RegisterProcessBase>(pid);
}

void SimRegisterGroup::begin_write(Value v, std::function<void()> done) {
  TBR_ENSURE(!net_->crashed(cfg_.writer), "writer has crashed");
  auto& writer = process(cfg_.writer);
  writer.start_write(net_->context(cfg_.writer), std::move(v),
                     std::move(done));
}

void SimRegisterGroup::begin_read(
    ProcessId reader, std::function<void(const Value&, SeqNo)> done) {
  TBR_ENSURE(reader < cfg_.n, "reader id out of range");
  TBR_ENSURE(!net_->crashed(reader), "reader has crashed");
  auto& proc = process(reader);
  proc.start_read(net_->context(reader), std::move(done));
}

void SimRegisterGroup::settle() {
  const bool drained = net_->run();
  TBR_ENSURE(drained, "protocol traffic did not drain");
  // Quiescent point: refresh the local-memory gauge (max across live
  // processes) so benches and CI read memory alongside the wire tallies.
  std::uint64_t peak = 0;
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    if (net_->crashed(pid)) continue;
    peak = std::max(peak, process(pid).local_memory_bytes());
  }
  net_->stats().record_local_memory(peak);
}

void SimRegisterGroup::crash(ProcessId pid) { net_->crash_now(pid); }

void SimRegisterGroup::crash_at(ProcessId pid, Tick t) {
  net_->crash_at(pid, t);
}

void SimRegisterGroup::recover(ProcessId pid) { net_->recover_now(pid); }

void SimRegisterGroup::recover_at(ProcessId pid, Tick t) {
  net_->recover_at(pid, t);
}

}  // namespace tbr
