// SocketNetwork: the register group over real TCP sockets.
//
// The third runtime (after the discrete-event simulator and the in-memory
// thread network): n processes inside this OS process, fully meshed over
// loopback TCP connections, multiplexed onto N epoll event loops. What
// travels between processes is the algorithm codec's wire encoding in
// length-prefixed frames — the actual two-bit frames, over an actual
// transport.
//
// Model mapping: TCP gives reliable FIFO byte streams, which is strictly
// stronger than the CAMP model's reliable non-FIFO channels, so every
// property proven in the model holds here (the simulator covers the
// adversarial-reordering side; the socket runtime covers the "is this a
// real system" side). Crashing a process closes its sockets mid-protocol;
// peers observe the dead channel and drop traffic toward it, exactly the
// model's "a crash stops the process, not its delivered packets".
//
// Multi-loop core: Options::loops event-loop threads (default: one per
// hardware thread, capped at n), each running epoll readiness over the
// connections of the processes sharded onto it (pid % loops — the
// mesh-topology analogue of SO_REUSEPORT sharded accept: every
// connection lands on exactly one loop at admission time and stays
// there). A process's handlers still run only on its owning loop thread,
// so the model's sequential-process guarantee is untouched; what changed
// is that loops no longer rebuild poll arrays — interest is registered
// once and updated O(1) — and that distinct processes on distinct loops
// make progress in parallel.
//
// Loop iteration: a send only frames its message into the peer's outbuf;
// just before it waits, the loop writes every channel that sends dirtied
// once, so the frames one iteration queues for one peer share one
// write(2) (BackpressureStats::socket_writes counts them). When the loops
// leave a hardware thread spare, a loop with nothing to do polls for up
// to 50 µs before it blocks, catching a peer's reply without the
// sleep/wake-up round trip.
//
// Backpressure: every connection carries ConnLimits watermarks (see
// transport/connection.hpp). When a peer's outbuf crosses high water the
// connection parks and the owning process stops *admitting* client
// operations — submissions queue in arrival order on the node and the
// RegisterClient chain stalls deterministically instead of the outbuf
// growing without bound. A flush (pre-wait or EPOLLOUT-driven) that
// drains to low water resumes admission. Nothing queued is dropped or reordered. parked()/
// backpressure_snapshot() surface the state.
//
// Client API: client() exposes the same unified RegisterClient as every
// other engine (pooled Ticket/callback completions, uniform Status — see
// src/client/client.hpp). An op issued on the loop thread that owns its
// process (a completion callback chaining the next op) is admitted in
// place; any other thread enqueues a command and wakes the owning loop.
// Park blocks on the client pool's condition variable, and the loop
// thread resolves the op (kCrashed after a crash marker, kShutdown once
// the network stops). Inbound bytes ride a consumed-offset ring
// (FrameBuffer), so draining a frame is O(frame), not O(buffer); a
// steady-state ticket round-trip stays allocation-free.
//
// Untrusted peers: a frame whose length prefix exceeds
// FrameBuffer::kMaxFrameBytes, or that the codec rejects, closes that one
// channel and is counted in BackpressureStats; the process and its other
// channels carry on.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "metrics/message_stats.hpp"
#include "net/register_process.hpp"
#include "transport/connection.hpp"
#include "workload/algorithms.hpp"

namespace tbr {

class SocketNetwork final : private RegisterClientEngine {
 public:
  struct Options {
    GroupConfig cfg;
    Algorithm algo = Algorithm::kTwoBit;
    /// Optional override: build each process yourself (e.g. wrap in a
    /// ReliableLinkProcess). When set, `algo` is informational.
    RegisterFactory process_factory;
    /// Optional override for the incarnation built by recover(); unset
    /// follows resolve_factories() (workload/algorithms.hpp).
    RegisterFactory recover_factory;

    /// Event-loop threads. 0 = auto: min(n, hardware concurrency).
    /// Processes shard onto loops by pid % loops.
    std::uint32_t loops = 0;

    /// Per-connection buffer/budget watermarks (applied to every channel).
    ConnLimits limits;
  };

  /// Aggregate backpressure counters across all processes.
  struct BackpressureStats {
    std::uint64_t park_events = 0;    ///< outbufs that crossed high water
    std::uint64_t resume_events = 0;  ///< parked outbufs drained to low water
    std::uint64_t deferred_ops = 0;   ///< ops admitted while parked (stalled)
    std::uint64_t peak_outbuf_bytes = 0;  ///< max queued bytes on any channel
    std::uint32_t parked_now = 0;     ///< processes currently parked
    /// Channels closed because the peer announced a frame above
    /// FrameBuffer::kMaxFrameBytes.
    std::uint64_t oversized_frames = 0;
    /// Channels closed because the codec rejected a frame.
    std::uint64_t malformed_frames = 0;
    /// Live channel endpoints now (a full n-mesh has n(n-1); a closed
    /// channel removes both of its ends).
    std::uint32_t open_channels = 0;
    /// write(2) calls that moved bytes, over every channel. Frames on the
    /// wire (stats_snapshot() sent minus dropped) over this count is
    /// frames per write(2).
    std::uint64_t socket_writes = 0;
  };

  explicit SocketNetwork(Options options);
  ~SocketNetwork();
  SocketNetwork(const SocketNetwork&) = delete;
  SocketNetwork& operator=(const SocketNetwork&) = delete;

  /// Build the TCP mesh and launch all event loops. Idempotent. Ops
  /// submitted before start() fail with kShutdown.
  void start();
  /// Stop loops, close sockets, reject further work. Idempotent.
  void stop();

  /// The unified client API (src/client/client.hpp): pooled Ticket and
  /// callback completions with uniform Status outcomes. Safe from any
  /// thread; completions run on the owning process's loop thread. Steady
  /// state: zero allocations per operation.
  RegisterClient& client() noexcept { return client_; }

  /// Crash a process: its loop closes every socket and ignores the rest.
  void crash(ProcessId pid);
  bool crashed(ProcessId pid) const;
  /// Rejoin a crashed process as a fresh incarnation (Options::
  /// recover_factory; throws ContractViolation when the group has no
  /// rejoiner): a brand-new TCP connection per live peer (whatever
  /// the old connections still held dies with them), then the new process
  /// starts on the loop thread and catches up from peer checkpoints.
  void recover(ProcessId pid);

  /// Event loops actually running (after auto-resolution).
  std::uint32_t loop_count() const noexcept;
  /// True while pid's op admission is stalled by backpressure: some
  /// outbound channel is above high water, so newly issued operations
  /// queue at the node instead of starting. The RegisterClient chain
  /// stalls deterministically behind them.
  bool parked(ProcessId pid) const;
  BackpressureStats backpressure_snapshot() const;
  /// Fault-injection hook (tests): while paused, pid's loop stops draining
  /// its inbound sockets — a slow reader without descheduling a thread.
  /// Kernel buffers fill, writers toward pid hit their watermarks.
  void set_read_paused(ProcessId pid, bool paused);

  /// Wire tallies merged over every process (each counts its own sends
  /// under a process-local lock). Safe from any thread.
  MessageStats stats_snapshot() const;
  const GroupConfig& config() const noexcept { return cfg_; }
  Tick now() const;  ///< ns since network construction

 private:
  class Node;
  class Loop;

  // RegisterClientEngine (see client_issue in the .cpp); park blocks on
  // the client pool.
  void client_issue(OpState& st) override;
  void client_park(OpState& st, OpPool& pool) override {
    pool.block_until_ready(st);
  }
  bool client_crashed(ProcessId pid) const override { return crashed(pid); }

  GroupConfig cfg_;
  Options opt_;
  GroupFactories factories_;
  RegisterClient client_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Loop>> loops_;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::jthread> threads_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace tbr
