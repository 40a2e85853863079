// MuxProcess: many independent registers multiplexed over one network node.
//
// The paper builds ONE register. A usable store needs many, and spinning up
// a full mesh per register would waste sockets and simulator state. The mux
// hosts one register instance per *slot* at each node and routes frames
// with a slot tag, exactly as ports multiplex TCP connections over one
// host pair.
//
// Accounting convention: the slot tag is addressing (data plane), not
// protocol control information — the paper's control-bit claim is per
// register instance, and each embedded two-bit register still ships
// exactly 2 control bits per frame. The tag is tallied in the frame's
// data_bits so the overhead stays visible in benches.
//
// Hot-path design: the slot wrapper reuses a per-slot scratch Message
// (the inner frame is encoded straight into its recycled Value buffer —
// no fresh string per send), inbound frames decode into a reused scratch
// via Codec::decode_into, and the batching window runs on a recycled
// BatchPlan whose chains/steps/completion vectors keep their high-water
// capacities — so a steady-state batched operation allocates nothing
// inside the mux.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/register_process.hpp"

namespace tbr {

/// Tally of what a batching window saved. Single-threaded per shard; the
/// sharded store aggregates snapshots across shards under its own locks.
struct BatchStats {
  std::uint64_t batches = 0;          ///< start_batch invocations
  std::uint64_t client_ops = 0;       ///< operations admitted to batches
  std::uint64_t protocol_reads = 0;   ///< read rounds actually issued
  std::uint64_t protocol_writes = 0;  ///< write rounds actually issued
  std::uint64_t coalesced_reads = 0;  ///< reads served by another op's round
  std::uint64_t absorbed_writes = 0;  ///< writes absorbed by last-write-wins
  std::uint64_t max_batch_ops = 0;    ///< largest single batch seen

  void merge(const BatchStats& other) {
    batches += other.batches;
    client_ops += other.client_ops;
    protocol_reads += other.protocol_reads;
    protocol_writes += other.protocol_writes;
    coalesced_reads += other.coalesced_reads;
    absorbed_writes += other.absorbed_writes;
    max_batch_ops = std::max(max_batch_ops, other.max_batch_ops);
  }
};

class MuxProcess final : public ProcessBase {
 public:
  /// Create `slots` register instances at node `self`. `slot_cfg(slot)`
  /// gives each slot's group config (writer assignment varies per slot);
  /// `factory` builds the per-slot register (default: the two-bit
  /// algorithm).
  MuxProcess(std::uint32_t slots,
             std::function<GroupConfig(std::uint32_t)> slot_cfg,
             ProcessId self, RegisterFactory factory = {});
  ~MuxProcess() override;

  void on_start(NetworkContext& net) override;
  void on_message(NetworkContext& net, ProcessId from,
                  const Message& msg) override;
  void on_crash() override;

  // ---- per-slot operations (invoked by the store facade) -------------------------
  void start_write(NetworkContext& net, std::uint32_t slot, Value v,
                   RegisterProcessBase::WriteDone done);
  void start_read(NetworkContext& net, std::uint32_t slot,
                  RegisterProcessBase::ReadDone done);

  // ---- batched operations (the engines' batching window) -------------------------
  /// Write completion in a batch: `version` is the slot register's index
  /// the write landed as (counted here — valid as long as every write to
  /// the slot goes through this mux, which the SWMR home-node placement
  /// guarantees); `absorbed` marks a write whose value was replaced by a
  /// later queued write before reaching the register.
  using BatchWriteDone = std::function<void(SeqNo version, bool absorbed)>;

  /// One client operation bound for this node: a read issued at this
  /// replica, or a write whose slot is homed here.
  struct BatchOp {
    std::uint32_t slot = 0;
    bool is_write = false;
    Value value;  ///< writes only
    BatchWriteDone write_done;
    RegisterProcessBase::ReadDone read_done;
  };

  /// Execute a window's worth of client operations in as few protocol
  /// rounds as the register spec allows. Ops are grouped per slot into
  /// arrival-order chains (one register admits one operation at a time per
  /// process); chains for distinct slots proceed concurrently. Within a
  /// chain, a run of consecutive reads shares ONE protocol read (every
  /// waiting client gets the same (value, index) — all of them linearize at
  /// that round's point, inside each caller's interval), and, when
  /// `coalesce_writes` is set, a run of consecutive writes collapses
  /// last-write-wins into ONE protocol write (the absorbed writes linearize
  /// immediately before the surviving one; no read can observe the skipped
  /// values because none ever reaches the register). `done` fires once
  /// every chain has completed; `stats`, when given, tallies the savings.
  ///
  /// The plan is recycled storage owned by this mux: at most ONE batch may
  /// be in flight per MuxProcess at a time (every in-tree driver waits for
  /// the previous window before issuing the next). Op payloads and
  /// completions are moved out of `ops`; the caller keeps the container
  /// and its capacity for the next window.
  void start_batch(NetworkContext& net, std::span<BatchOp> ops,
                   bool coalesce_writes, std::function<void()> done,
                   BatchStats* stats = nullptr);
  /// Convenience overload consuming a vector (capacity is discarded).
  void start_batch(NetworkContext& net, std::vector<BatchOp> ops,
                   bool coalesce_writes, std::function<void()> done,
                   BatchStats* stats = nullptr) {
    start_batch(net, std::span<BatchOp>(ops), coalesce_writes,
                std::move(done), stats);
  }

  std::uint32_t slot_count() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  RegisterProcessBase& slot(std::uint32_t index);
  /// Total bytes of protocol state across all hosted registers.
  std::uint64_t local_memory_bytes() const;
  bool crashed() const noexcept { return crashed_; }

 private:
  class SlotContext;

  /// The window's execution plan, recycled across batches: chains and
  /// steps are high-water arrays with live counts, so planning a window
  /// the same size as a previous one performs no allocation.
  struct BatchPlan {
    struct Step {
      bool is_write = false;
      Value value;  ///< surviving write value (write steps only)
      SeqNo version = 0;  ///< assigned when the write step issues
      std::vector<BatchWriteDone> write_dones;
      std::vector<RegisterProcessBase::ReadDone> read_dones;
    };
    struct Chain {
      std::uint32_t slot = 0;
      std::size_t step_count = 0;  ///< live prefix of `steps`
      std::vector<Step> steps;
    };
    std::size_t chain_count = 0;  ///< live prefix of `chains`
    std::vector<Chain> chains;
    std::size_t outstanding = 0;  ///< chains not yet run to completion
    bool active = false;
    std::function<void()> done;

    Chain& push_chain(std::uint32_t slot);
    static Step& push_step(Chain& chain);
  };

  void run_batch_chain(std::size_t chain, std::size_t step);

  ProcessId self_;
  std::vector<std::unique_ptr<RegisterProcessBase>> slots_;
  std::vector<std::unique_ptr<SlotContext>> contexts_;
  /// Protocol writes issued per slot via start_batch; tracks the slot
  /// register's index because this node is the slot's single writer.
  std::vector<SeqNo> batch_versions_;
  BatchPlan plan_;
  /// start_batch scratch: slot -> live chain index (kNoChain = none yet),
  /// reset via the plan's chain list after each window is planned.
  std::vector<std::uint32_t> slot_chain_;
  /// Inbound scratch: frames decode into this reused Message.
  Message inbound_;
  NetworkContext* net_ = nullptr;  // stable per runtime; stashed on entry
  bool crashed_ = false;
};

/// The n processes of one register group hosting `slots` registers: node
/// pid's MuxProcess, with slot s written at node s mod n (the SWMR
/// constraint as a placement policy) and `initial` as every slot's value
/// before its first write. `factory` builds each slot's register (empty:
/// two-bit). Nodes and their slots are built in order.
std::vector<std::unique_ptr<ProcessBase>> make_mux_group(
    std::uint32_t n, std::uint32_t t, std::uint32_t slots,
    const Value& initial = Value(),
    const RegisterFactory& factory = {});

}  // namespace tbr
