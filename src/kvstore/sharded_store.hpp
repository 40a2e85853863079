// ShardedKvStore: the keyspace partitioned across independent register
// groups, with a per-shard batching window.
//
// One MuxProcess network multiplexes many slots over ONE n-node group, but
// every key on it serializes through one event loop. This engine is the
// scale-out layer (shards = 1 is the single-group store):
//
//   * ShardRouter splits the keyspace across `shards` register GROUPS, each
//     a full n-node crash-prone network of its own (its own MuxProcess per
//     node, its own simulator, its own worker thread). Groups share
//     nothing, so throughput scales with cores.
//   * Each shard has a mailbox (MailboxT<ShardOp>) and one worker thread.
//     The worker drains whatever accumulated while it executed the previous
//     batch — a natural batching window, as in group commit — and hands the
//     window to MuxProcess::start_batch, which collapses it into as few
//     protocol rounds as the register spec allows (reads issued at the same
//     replica share one round; queued writes to one slot can collapse
//     last-write-wins).
//   * Clients use the unified client() API (src/client/client.hpp): pooled
//     Ticket/callback completions resolved on the owning shard's worker,
//     with uniform Status outcomes. Any thread may submit. (The legacy
//     promise-backed put_async/get_async futures cost ~4 allocations per
//     op; they are gone — the pooled path costs none beyond the window
//     bookkeeping.)
//
// Atomicity is untouched: every slot is still one paper register; batching
// only chooses WHICH protocol operations to issue, never changes what a
// protocol operation does. tests/sharded_linearizability_test.cpp checks
// per-key histories across shard boundaries.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "kvstore/mux_process.hpp"
#include "kvstore/shard_router.hpp"
#include "metrics/message_stats.hpp"
#include "runtime/mailbox.hpp"
#include "sim/sim_network.hpp"
#include "workload/algorithms.hpp"

namespace tbr {

class ShardedKvStore {
 public:
  struct Options {
    std::uint32_t shards = 4;          ///< independent register groups
    std::uint32_t n = 3;               ///< replica nodes per shard
    std::uint32_t t = 1;               ///< crash budget per shard (2t < n)
    std::uint32_t slots_per_shard = 16;
    std::uint64_t seed = 1;
    Value initial;                     ///< value of every never-written key

    /// Collapse runs of queued writes to one slot into a single protocol
    /// write (last value wins; absorbed puts resolve with the surviving
    /// version and `absorbed = true`). Reads always coalesce.
    bool coalesce_writes = true;
    /// Largest window handed to one batch (0 = unbounded drain).
    std::size_t max_batch = 0;
    /// Batching window floor: a worker waits (up to min_batch_wait) until
    /// at least this many ops are queued before opening a window, like a
    /// group-commit minimum. 0 or 1 = drain whatever accumulated (the
    /// default). Pipelined clients get deterministic window sizes — the
    /// allocs-per-op gates rely on this.
    std::size_t min_batch = 0;
    /// Patience for min_batch before the worker opens a partial window
    /// anyway (keeps drain()/ragged traffic live).
    std::chrono::microseconds min_batch_wait{1000};
    /// Pin shard worker s to core s (best-effort; see runtime/affinity.hpp).
    bool pin_shard_threads = false;

    /// Per-slot register engine when `register_factory` is unset
    /// (two-bit default, or a fast-path read engine for 3Δ/2Δ gets).
    Algorithm engine = Algorithm::kTwoBit;
    RegisterFactory register_factory;  ///< overrides `engine`
  };

  /// Replica selector for gets: rotate over the shard's live-looking nodes.
  static constexpr ProcessId kAnyReplica = kNoProcess;

  explicit ShardedKvStore(Options options);
  ~ShardedKvStore();
  ShardedKvStore(const ShardedKvStore&) = delete;
  ShardedKvStore& operator=(const ShardedKvStore&) = delete;

  // ---- the unified client API (any thread) ---------------------------------------
  /// Pooled Ticket/callback completions with uniform Status outcomes
  /// (src/client/client.hpp). Ops execute inside their shard's next
  /// batching window; completions (and callbacks) run on the shard worker.
  /// put results carry version/absorbed; steady state costs at most one
  /// allocation per op end to end (gated).
  KvClient& client() noexcept;

  // ---- environment ---------------------------------------------------------------
  /// Crash replica `node` in shard `shard` (applied between batches).
  void crash(std::uint32_t shard, ProcessId node);
  /// Block until every shard queue is empty and its worker is idle.
  void drain();
  /// Stop accepting work and join the shard workers (already-queued
  /// windows drain first). Idempotent; the destructor calls it. Later
  /// submissions complete with StatusCode::kShutdown.
  void stop();

  const ShardRouter& router() const noexcept { return router_; }
  std::uint32_t shard_count() const noexcept;
  std::uint32_t node_count() const noexcept;

  // ---- observability (aggregated snapshots, safe from any thread) ---------------
  struct ShardReport {
    BatchStats batch;
    MessageStats net;
    Tick virtual_now = 0;        ///< shard simulator clock
    std::uint64_t failed_ops = 0;
    /// The shard stalled (over-budget crashes); it now refuses all ops.
    bool lost_liveness = false;
  };
  ShardReport shard_report(std::uint32_t shard) const;
  BatchStats batch_stats() const;      ///< merged across shards
  std::uint64_t frames_sent() const;   ///< merged across shards

 private:
  struct Shard;
  struct ShardOp;
  class ClientImpl;

  static void worker_loop(Shard& shard, std::stop_token st);
  /// Copy the worker-owned counters into the cross-thread snapshot.
  static void publish_report(Shard& shard);

  Options opt_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ClientImpl> client_impl_;  // engine + KvClient
  std::vector<std::jthread> workers_;
};

}  // namespace tbr
