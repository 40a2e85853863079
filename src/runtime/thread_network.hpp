// ThreadNetwork: the register group on real threads.
//
// One jthread + mailbox per process (handlers are single-threaded per
// process, as the model requires); one dispatcher jthread that holds every
// in-flight frame until its randomized release time, providing genuine
// asynchrony and reordering. Frames are round-tripped through the
// algorithm's codec — what travels between threads is the wire encoding.
//
// Hot-path design: encode buffers come from a recycled pool (take on send,
// encode_into a warmed string, move the buffer through PendingFrame and
// DeliverEnvelope to the receiver, recycle after decode), mailboxes are
// ring-backed, and a client operation travels as one pooled OpState
// pointer — so a steady-state operation allocates nothing in the runtime.
//
// Client API: client() is the one way in: the unified RegisterClient
// (pooled Ticket/callback completions, uniform Status — see
// src/client/client.hpp), zero allocations per operation in both shapes.
// Its issue pushes the OpState to the owning process's mailbox, and that
// process's thread completes it (callbacks run there; do not block in
// them).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/rng.hpp"
#include "metrics/message_stats.hpp"
#include "net/register_process.hpp"
#include "runtime/mailbox.hpp"
#include "workload/algorithms.hpp"

namespace tbr {

class ThreadNetwork final : private RegisterClientEngine {
 public:
  struct Options {
    GroupConfig cfg;
    Algorithm algo = Algorithm::kTwoBit;
    std::uint64_t seed = 1;
    /// Uniform per-frame artificial delay before delivery, in microseconds.
    /// max > min enables reordering; {0,0} is "as fast as possible".
    std::uint32_t min_delay_us = 0;
    std::uint32_t max_delay_us = 200;
    /// Optional override: build each process yourself (e.g. wrap in a
    /// ReliableLinkProcess). When set, `algo` is informational.
    RegisterFactory process_factory;
    /// Optional override for the incarnation built by recover(); unset
    /// follows resolve_factories() (workload/algorithms.hpp).
    RegisterFactory recover_factory;
  };

  explicit ThreadNetwork(Options options);
  ~ThreadNetwork();
  ThreadNetwork(const ThreadNetwork&) = delete;
  ThreadNetwork& operator=(const ThreadNetwork&) = delete;

  /// Launch all process threads and the dispatcher. Idempotent. Ops
  /// submitted before start() fail with kShutdown.
  void start();
  /// Stop threads and reject further work. Idempotent; called by ~.
  void stop();

  // ---- the unified client API ----------------------------------------------
  /// Pooled Ticket/callback completions with uniform Status outcomes
  /// (src/client/client.hpp). Safe from any thread; completions run on the
  /// owning process's thread. Steady state: zero allocations per op.
  RegisterClient& client() noexcept { return client_; }

  /// Crash a process: it handles nothing after the marker is processed.
  void crash(ProcessId pid);
  bool crashed(ProcessId pid) const;
  /// Rejoin a crashed process as a fresh incarnation (Options::
  /// recover_factory; throws ContractViolation when the group has no
  /// rejoiner). Every channel touching it is re-established:
  /// in-flight frames stamped with the old channel epoch are dropped at
  /// delivery, exactly as a closed-and-reopened TCP connection would lose
  /// them. The new incarnation starts (and catches up) on the loop thread.
  void recover(ProcessId pid);

  MessageStats stats_snapshot() const;
  const GroupConfig& config() const noexcept { return cfg_; }
  Tick now() const;  ///< ns since network construction

 private:
  class ProcessHost;
  struct PendingFrame {
    Tick release_at = 0;
    std::uint64_t seq = 0;
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    std::string encoded;
    std::uint32_t epoch = 0;  ///< channel epoch at send time (fencing)
    /// Set => this entry is a timer expiry for `to`, not a frame.
    std::function<void()> timer;
    bool operator>(const PendingFrame& other) const {
      if (release_at != other.release_at) return release_at > other.release_at;
      return seq > other.seq;
    }
  };

  // RegisterClientEngine: issue = push the OpState to its process's
  // mailbox; park = block on the client pool.
  void client_issue(OpState& st) override;
  void client_park(OpState& st, OpPool& pool) override {
    pool.block_until_ready(st);
  }
  bool client_crashed(ProcessId pid) const override { return crashed(pid); }

  void dispatch(ProcessId from, ProcessId to, const Message& msg);
  void schedule_timer(ProcessId pid, Tick delay, std::function<void()> fn);
  void dispatcher_loop(std::stop_token st);

  /// Channel epochs, flattened [from * n + to]; see SimNetwork's matrix for
  /// the semantics. Atomics because a cell is bumped by the endpoint
  /// threads (fence_peer / recover) and read by the sender's stamp and the
  /// receiver's delivery check.
  std::atomic<std::uint32_t>& chan_epoch(ProcessId from, ProcessId to) {
    return chan_epoch_[from * cfg_.n + to];
  }
  void record_fenced_drop();

  /// Encode-buffer pool: warmed strings cycled sender -> dispatcher ->
  /// receiver -> pool. Bounded so a burst cannot pin memory forever.
  std::string take_buffer();
  void recycle_buffer(std::string&& buf);
  static constexpr std::size_t kMaxPooledBuffers = 256;

  GroupConfig cfg_;
  Options opt_;
  GroupFactories factories_;
  std::vector<std::unique_ptr<ProcessHost>> hosts_;
  RegisterClient client_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> chan_epoch_;  // n*n cells

  // Dispatcher state.
  mutable std::mutex dispatch_mu_;
  std::condition_variable_any dispatch_cv_;
  std::vector<PendingFrame> frame_heap_;  // min-heap via std::push_heap
  std::uint64_t frame_seq_ = 0;
  Rng delay_rng_;

  std::mutex buffer_mu_;
  std::vector<std::string> buffer_pool_;

  mutable std::mutex stats_mu_;
  MessageStats stats_;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::jthread> threads_;  // processes + dispatcher
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace tbr
