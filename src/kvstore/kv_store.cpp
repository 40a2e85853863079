#include "kvstore/kv_store.hpp"

#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "kvstore/shard_router.hpp"

namespace tbr {

namespace {
constexpr Status kHomeCrashed{StatusCode::kCrashed,
                              "the key's home node has crashed"};
constexpr Status kReaderCrashed{StatusCode::kCrashed,
                                "the requested replica has crashed"};
constexpr Status kStoreLiveness{
    StatusCode::kLivenessLost,
    "kv store lost liveness; operations are refused"};
}  // namespace

// ---- ClientImpl: the unified client API over the flat (sim) store ------------
//
// Deferred-issue engine: submissions queue client-side; the first wait()
// flushes everything queued since the last window into one
// MuxProcess::start_batch per replica, then drives the simulation. That
// makes the flat store's batching semantics match the sharded engine's
// mailbox windows — reads at one replica share a protocol round, queued
// same-slot writes coalesce last-write-wins — with no worker thread.
// Heap-held so client handles stay valid across moves of the owning store.

class KvStore::ClientImpl final : public KvClientEngine {
 public:
  ClientImpl(SimNetwork& net, std::uint32_t n, std::uint32_t slots,
             bool coalesce)
      : net_(&net), n_(n), slots_(slots), coalesce_(coalesce), client_(*this) {
    per_node_.resize(n_);
  }

  void client_route(std::string_view key, OpState& st) override {
    st.slot = static_cast<std::uint32_t>(ShardRouter::hash(key) % slots_);
    if (st.kind == OpKind::kWrite) {
      st.node = st.slot % n_;
    } else {
      TBR_ENSURE(st.node == kAnyReplica || st.node < n_,
                 "reader out of range");
    }
  }

  void client_issue(OpState& st) override { pending_.push_back(&st); }

  void client_flush() override {
    if (pending_.empty()) return;
    // Finish the previous window first: its chains hold the per-slot
    // one-op-at-a-time guards armed until they complete.
    if (lost_liveness_ ||
        (outstanding_ > 0 &&
         !net_->run_until([this] { return outstanding_ == 0; }))) {
      lost_liveness_ = true;
      for (OpState* op : pending_) {
        op->owner->complete_failed(*op, kStoreLiveness);
      }
      pending_.clear();
      return;
    }

    for (auto& ops : per_node_) ops.clear();
    for (OpState* stp : pending_) {
      OpState& op = *stp;
      if (op.kind == OpKind::kRead && op.node == kAnyReplica) {
        for (std::uint32_t tries = 0; tries < n_; ++tries) {
          op.node = next_reader_;
          next_reader_ = (next_reader_ + 1) % n_;
          if (!net_->crashed(op.node)) break;
        }
      }
      if (net_->crashed(op.node)) {
        op.owner->complete_failed(op, op.kind == OpKind::kWrite
                                          ? kHomeCrashed
                                          : kReaderCrashed);
        continue;
      }
      op.start = net_->now();
      MuxProcess::BatchOp batch_op;
      batch_op.slot = op.slot;
      if (op.kind == OpKind::kWrite) {
        batch_op.is_write = true;
        batch_op.value = std::move(op.value);
        batch_op.write_done = [this, &op](SeqNo version, bool absorbed) {
          op.result.version = version;
          op.result.absorbed = absorbed;
          op.result.latency = net_->now() - op.start;
          op.owner->complete(op);
        };
      } else {
        batch_op.read_done = [this, &op](const Value& v, SeqNo index) {
          op.result.value = v;
          op.result.version = index;
          op.result.latency = net_->now() - op.start;
          op.owner->complete(op);
        };
      }
      per_node_[op.node].push_back(std::move(batch_op));
    }
    pending_.clear();

    for (ProcessId pid = 0; pid < n_; ++pid) {
      auto& node_ops = per_node_[pid];
      if (node_ops.empty()) continue;
      ++outstanding_;
      auto& mux = net_->process_as<MuxProcess>(pid);
      mux.start_batch(net_->context(pid),
                      std::span<MuxProcess::BatchOp>(node_ops), coalesce_,
                      [this] { --outstanding_; }, &batch_);
    }
  }

  void client_park(OpState& st, OpPool& /*pool*/) override {
    const bool ok = net_->run_until(
        [&st] { return st.ready.load(std::memory_order_acquire); });
    if (!ok) {
      lost_liveness_ = true;
      st.result.status =
          Status(StatusCode::kLivenessLost,
                 "kv store cannot complete the operation (crashed quorum "
                 "or stuck run)");
    }
  }

  KvClient& client() noexcept { return client_; }
  const BatchStats& batch_stats() const noexcept { return batch_; }

 private:
  SimNetwork* net_;
  std::uint32_t n_ = 0;
  std::uint32_t slots_ = 0;
  bool coalesce_ = true;
  ProcessId next_reader_ = 0;
  std::size_t outstanding_ = 0;
  bool lost_liveness_ = false;
  std::vector<OpState*> pending_;
  std::vector<std::vector<MuxProcess::BatchOp>> per_node_;
  BatchStats batch_;
  KvClient client_;
};

KvStore::KvStore(KvStore&&) noexcept = default;
KvStore& KvStore::operator=(KvStore&&) noexcept = default;
KvStore::~KvStore() = default;

KvClient& KvStore::client() {
  if (!client_impl_) {
    client_impl_ =
        std::make_unique<ClientImpl>(*net_, n_, slots_, coalesce_writes_);
  }
  return client_impl_->client();
}

KvStore::KvStore(Options options)
    : n_(options.n),
      slots_(options.slots),
      coalesce_writes_(options.coalesce_writes) {
  TBR_ENSURE(slots_ >= 1, "store needs at least one slot");
  const std::uint32_t n = options.n;
  const std::uint32_t t = options.t;
  const Value initial = options.initial;
  auto slot_cfg = [n, t, initial](std::uint32_t slot) {
    GroupConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.writer = slot % n;  // shard placement: slot's home node
    cfg.initial = initial;
    cfg.validate();
    return cfg;
  };

  // An explicit factory wins; otherwise the engine knob picks the per-slot
  // register protocol (two-bit default, or a fast-path read engine).
  MuxProcess::SlotFactory factory = std::move(options.register_factory);
  if (!factory) {
    const Algorithm engine = options.engine;
    factory = [engine](const GroupConfig& cfg, ProcessId pid) {
      return make_register_process(engine, cfg, pid);
    };
  }

  std::vector<std::unique_ptr<ProcessBase>> processes;
  processes.reserve(n_);
  for (ProcessId pid = 0; pid < n_; ++pid) {
    processes.push_back(
        std::make_unique<MuxProcess>(slots_, slot_cfg, pid, factory));
  }
  SimNetwork::Options net_opt;
  net_opt.seed = options.seed;
  net_opt.loss_rate = options.loss_rate;
  net_opt.delay =
      options.delay ? std::move(options.delay) : make_constant_delay(1000);
  net_ = std::make_unique<SimNetwork>(std::move(processes),
                                      std::move(net_opt));
}

std::uint32_t KvStore::slot_of(std::string_view key) const {
  // Same FNV-1a the sharded engine routes with (full hash mod slots: the
  // flat store predates the split-hash router and keeps its placement).
  return static_cast<std::uint32_t>(ShardRouter::hash(key) % slots_);
}

ProcessId KvStore::home_node(std::string_view key) const {
  return slot_of(key) % n_;
}

MuxProcess& KvStore::mux_at(ProcessId node) {
  return net_->process_as<MuxProcess>(node);
}

void KvStore::crash(ProcessId node) { net_->crash_now(node); }

bool KvStore::crashed(ProcessId node) const { return net_->crashed(node); }

void KvStore::settle() {
  // Hand any deferred client window to the protocol first: settle() is
  // the flat store's "drive everything" call, and callback-mode or
  // polled client ops have no wait() to trigger the flush.
  if (client_impl_) client_impl_->client_flush();
  (void)net_->run();
}

std::uint64_t KvStore::total_memory_bytes() {
  std::uint64_t bytes = 0;
  for (ProcessId pid = 0; pid < n_; ++pid) {
    bytes += mux_at(pid).local_memory_bytes();
  }
  return bytes;
}

}  // namespace tbr
