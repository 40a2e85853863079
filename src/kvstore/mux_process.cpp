#include "kvstore/mux_process.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "core/twobit_process.hpp"

namespace tbr {

namespace {
/// slot_chain_ sentinel: no live chain for this slot in the current plan.
constexpr std::uint32_t kNoChain = 0xFFFFFFFFu;
}  // namespace

// Per-slot view of the network: wraps the inner register's frames in a
// slot-tagged envelope before they reach the real transport. The envelope
// is a reused scratch Message — the inner frame encodes straight into its
// recycled Value buffer, so a steady-state wrapped send allocates nothing
// (ROADMAP's "mux slot-frame wrapping" item).
class MuxProcess::SlotContext final : public NetworkContext {
 public:
  SlotContext(MuxProcess& mux, std::uint32_t slot)
      : mux_(mux), slot_(slot) {}

  void send(ProcessId to, const Message& inner) override {
    TBR_ENSURE(mux_.net_ != nullptr, "slot context used before start");
    outer_.type = inner.type;  // per-type stats still reflect the protocol
    outer_.seq = slot_;        // routing tag (addressing, not control)
    mux_.slots_[slot_]->codec().encode_into(inner,
                                            outer_.value.mutable_bytes());
    outer_.has_value = true;
    outer_.aux = 0;
    outer_.debug_index = inner.debug_index;
    outer_.wire.control_bits = inner.wire.control_bits;
    outer_.wire.data_bits = inner.wire.data_bits + 32;  // the slot tag
    mux_.net_->send(to, outer_);
  }
  ProcessId self() const override { return mux_.self_; }
  std::uint32_t process_count() const override {
    TBR_ENSURE(mux_.net_ != nullptr, "slot context used before start");
    return mux_.net_->process_count();
  }
  Tick now() const override {
    TBR_ENSURE(mux_.net_ != nullptr, "slot context used before start");
    return mux_.net_->now();
  }
  void schedule(Tick delay, std::function<void()> fn) override {
    TBR_ENSURE(mux_.net_ != nullptr, "slot context used before start");
    mux_.net_->schedule(delay, std::move(fn));
  }

 private:
  MuxProcess& mux_;
  std::uint32_t slot_;
  Message outer_;  ///< reused envelope (the transport copies on send)
};

MuxProcess::MuxProcess(std::uint32_t slots,
                       std::function<GroupConfig(std::uint32_t)> slot_cfg,
                       ProcessId self, RegisterFactory factory)
    : self_(self) {
  TBR_ENSURE(slots >= 1, "mux needs at least one slot");
  TBR_ENSURE(slot_cfg != nullptr, "mux needs a slot config source");
  slots_.reserve(slots);
  contexts_.reserve(slots);
  batch_versions_.assign(slots, 0);
  slot_chain_.assign(slots, kNoChain);
  for (std::uint32_t s = 0; s < slots; ++s) {
    const GroupConfig cfg = slot_cfg(s);
    slots_.push_back(factory
                         ? factory(cfg, self)
                         : std::make_unique<TwoBitProcess>(cfg, self));
    contexts_.push_back(std::make_unique<SlotContext>(*this, s));
  }
}

MuxProcess::~MuxProcess() = default;

void MuxProcess::on_start(NetworkContext& net) {
  net_ = &net;
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    slots_[s]->on_start(*contexts_[s]);
  }
}

void MuxProcess::on_message(NetworkContext& net, ProcessId from,
                            const Message& msg) {
  net_ = &net;
  TBR_ENSURE(msg.has_value, "mux frame without payload");
  TBR_ENSURE(msg.seq >= 0 &&
                 msg.seq < static_cast<SeqNo>(slots_.size()),
             "mux frame for unknown slot");
  const auto slot_index = static_cast<std::uint32_t>(msg.seq);
  // Unwrap into the reused inbound scratch (no per-frame Value string).
  slots_[slot_index]->codec().decode_into(msg.value.bytes(), inbound_);
  slots_[slot_index]->on_message(*contexts_[slot_index], from, inbound_);
}

void MuxProcess::on_crash() {
  crashed_ = true;
  for (auto& reg : slots_) reg->on_crash();
}

void MuxProcess::start_write(NetworkContext& net, std::uint32_t slot_index,
                             Value v, RegisterProcessBase::WriteDone done) {
  net_ = &net;
  TBR_ENSURE(slot_index < slots_.size(), "slot out of range");
  slots_[slot_index]->start_write(*contexts_[slot_index], std::move(v),
                                  std::move(done));
}

void MuxProcess::start_read(NetworkContext& net, std::uint32_t slot_index,
                            RegisterProcessBase::ReadDone done) {
  net_ = &net;
  TBR_ENSURE(slot_index < slots_.size(), "slot out of range");
  slots_[slot_index]->start_read(*contexts_[slot_index], std::move(done));
}

// ---- batching window --------------------------------------------------------
//
// A batch becomes a set of per-slot chains. Each chain is a sequence of
// protocol *steps* in client arrival order; coalescing merges a run of
// consecutive reads into one read step (every caller shares the round's
// (value, index)) and — opt-in — a run of consecutive writes into one write
// step carrying only the last value. Chains for different slots are
// independent registers, so they are all started at once and interleave
// freely in the underlying network.
//
// The plan lives in recycled storage (chains, steps and their completion
// vectors keep high-water capacity), and the per-step protocol completion
// captures {this, packed chain/step} — 16 bytes, std::function's inline
// buffer — so planning and running a steady-state window is allocation-free.

MuxProcess::BatchPlan::Chain& MuxProcess::BatchPlan::push_chain(
    std::uint32_t slot) {
  if (chain_count == chains.size()) chains.emplace_back();
  Chain& chain = chains[chain_count++];
  chain.slot = slot;
  chain.step_count = 0;
  return chain;
}

MuxProcess::BatchPlan::Step& MuxProcess::BatchPlan::push_step(Chain& chain) {
  if (chain.step_count == chain.steps.size()) chain.steps.emplace_back();
  Step& step = chain.steps[chain.step_count++];
  step.is_write = false;
  step.version = 0;
  step.write_dones.clear();
  step.read_dones.clear();
  return step;
}

void MuxProcess::start_batch(NetworkContext& net, std::span<BatchOp> ops,
                             bool coalesce_writes, std::function<void()> done,
                             BatchStats* stats) {
  net_ = &net;
  TBR_ENSURE(done != nullptr, "batch needs a completion callback");
  TBR_ENSURE(!ops.empty(), "batch must contain at least one operation");
  TBR_ENSURE(!plan_.active,
             "one batch at a time per mux (wait for the previous window)");
  if (stats != nullptr) {
    stats->batches += 1;
    stats->client_ops += ops.size();
    stats->max_batch_ops = std::max(
        stats->max_batch_ops, static_cast<std::uint64_t>(ops.size()));
  }

  // Plan: ops are already in arrival order; route each to its slot's live
  // chain (creating one on first touch), extending or starting a step run.
  plan_.chain_count = 0;
  for (BatchOp& op : ops) {
    TBR_ENSURE(op.slot < slots_.size(), "batch op for unknown slot");
    std::uint32_t chain_index = slot_chain_[op.slot];
    if (chain_index == kNoChain) {
      chain_index = static_cast<std::uint32_t>(plan_.chain_count);
      slot_chain_[op.slot] = chain_index;
      plan_.push_chain(op.slot);
    }
    BatchPlan::Chain& chain = plan_.chains[chain_index];
    const bool extends_run =
        chain.step_count > 0 &&
        chain.steps[chain.step_count - 1].is_write == op.is_write;
    if (op.is_write) {
      if (coalesce_writes && extends_run) {
        BatchPlan::Step& step = chain.steps[chain.step_count - 1];
        step.value = std::move(op.value);  // last write wins
        step.write_dones.push_back(std::move(op.write_done));
        if (stats != nullptr) stats->absorbed_writes += 1;
      } else {
        BatchPlan::Step& step = BatchPlan::push_step(chain);
        step.is_write = true;
        step.value = std::move(op.value);
        step.write_dones.push_back(std::move(op.write_done));
        if (stats != nullptr) stats->protocol_writes += 1;
      }
    } else {
      if (extends_run) {
        chain.steps[chain.step_count - 1].read_dones.push_back(
            std::move(op.read_done));
        if (stats != nullptr) stats->coalesced_reads += 1;
      } else {
        BatchPlan::Step& step = BatchPlan::push_step(chain);
        step.read_dones.push_back(std::move(op.read_done));
        if (stats != nullptr) stats->protocol_reads += 1;
      }
    }
  }
  for (std::size_t c = 0; c < plan_.chain_count; ++c) {
    slot_chain_[plan_.chains[c].slot] = kNoChain;
  }
  plan_.outstanding = plan_.chain_count;
  plan_.active = true;
  plan_.done = std::move(done);

  for (std::size_t c = 0; c < plan_.chain_count; ++c) {
    run_batch_chain(c, 0);
  }
}

void MuxProcess::run_batch_chain(std::size_t chain, std::size_t step) {
  BatchPlan::Chain& ch = plan_.chains[chain];
  if (step == ch.step_count) {
    if (--plan_.outstanding == 0) {
      plan_.active = false;
      // Moved out first: the callback may start the next window, which
      // reuses plan_ (including plan_.done) immediately.
      const std::function<void()> finished = std::move(plan_.done);
      plan_.done = nullptr;
      finished();
    }
    return;
  }
  // {this, packed} is 16 bytes — std::function stores it inline.
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(chain) << 32) |
      static_cast<std::uint64_t>(step);
  BatchPlan::Step& st = ch.steps[step];
  if (st.is_write) {
    st.version = ++batch_versions_[ch.slot];
    start_write(*net_, ch.slot, std::move(st.value), [this, packed] {
      const auto chain_index = static_cast<std::size_t>(packed >> 32);
      const auto step_index =
          static_cast<std::size_t>(packed & 0xFFFFFFFFu);
      auto& done_step = plan_.chains[chain_index].steps[step_index];
      for (std::size_t k = 0; k < done_step.write_dones.size(); ++k) {
        // Only the run's last write reached the register.
        if (done_step.write_dones[k]) {
          done_step.write_dones[k](done_step.version,
                                   k + 1 != done_step.write_dones.size());
        }
      }
      run_batch_chain(chain_index, step_index + 1);
    });
  } else {
    start_read(*net_, ch.slot, [this, packed](const Value& v, SeqNo index) {
      const auto chain_index = static_cast<std::size_t>(packed >> 32);
      const auto step_index =
          static_cast<std::size_t>(packed & 0xFFFFFFFFu);
      auto& done_step = plan_.chains[chain_index].steps[step_index];
      for (auto& done : done_step.read_dones) {
        if (done) done(v, index);
      }
      run_batch_chain(chain_index, step_index + 1);
    });
  }
}

RegisterProcessBase& MuxProcess::slot(std::uint32_t index) {
  TBR_ENSURE(index < slots_.size(), "slot out of range");
  return *slots_[index];
}

std::uint64_t MuxProcess::local_memory_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& reg : slots_) bytes += reg->local_memory_bytes();
  return bytes;
}

std::vector<std::unique_ptr<ProcessBase>> make_mux_group(
    std::uint32_t n, std::uint32_t t, std::uint32_t slots,
    const Value& initial, const RegisterFactory& factory) {
  auto slot_cfg = [n, t, initial](std::uint32_t slot) {
    GroupConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.writer = slot % n;
    cfg.initial = initial;
    cfg.validate();
    return cfg;
  };
  std::vector<std::unique_ptr<ProcessBase>> processes;
  processes.reserve(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    processes.push_back(
        std::make_unique<MuxProcess>(slots, slot_cfg, pid, factory));
  }
  return processes;
}

}  // namespace tbr
