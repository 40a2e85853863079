// SimNetwork: the CAMP_{n,t} model, executable.
//
// n event-driven processes over a complete graph of reliable, non-FIFO,
// asynchronous channels; up to t of them may crash at scheduled instants.
// Virtual time advances only when events fire, so a (processes, delay model,
// seed) triple fully determines the execution — the adversarial-schedule
// property tests sweep seeds to explore distinct interleavings.
//
// Hot-path design (zero allocations per delivered frame in steady state):
// a send copy-assigns the message into a slot of a recycled frame pool
// (std::deque: slot references stay valid while handlers send) and
// schedules a typed Deliver event carrying the slot index — no closure, no
// per-frame Message copy beyond the one the reliable channel semantically
// requires. Slots return to a freelist after delivery, so their string
// capacities are reused and steady-state traffic never touches the heap.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "metrics/message_stats.hpp"
#include "net/context.hpp"
#include "net/process.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/trace.hpp"

namespace tbr {

class SimNetwork {
 public:
  struct Options {
    std::uint64_t seed = 1;
    std::unique_ptr<DelayModel> delay;  ///< default: ConstantDelay(1000)

    /// OUT-OF-MODEL fault injection: drop each frame with this probability.
    /// The CAMP model's channels are reliable and every algorithm here
    /// assumes that (none retransmits); non-zero loss exists to demonstrate
    /// the model boundary (experiment D8) — safety survives, liveness does
    /// not. Keep 0 for every in-model experiment.
    double loss_rate = 0.0;

    /// Per-node CPU capacity model: each process handles at most one frame
    /// per `service_time` ticks; frames arriving at a busy node queue
    /// behind it (FIFO by arrival). 0 (default) disables the model —
    /// delivery time is the channel delay alone, as the CAMP model assumes.
    /// The asynchronous model is preserved (handling is only ever delayed,
    /// never reordered against causality), so safety results are
    /// unaffected; what changes is THROUGHPUT, which is the point: capacity
    /// projections for the sharded engine use this to measure what finite
    /// per-replica CPU does to an op mix. In-flight introspection does not
    /// track frames re-queued behind a busy node.
    Tick service_time = 0;

    /// Maintain the per-frame in-flight registry read by in_flight() /
    /// in_flight_between() (P1-style channel invariant observers). Off by
    /// default: the registry costs an insert + linear-scan erase per frame,
    /// which is pure overhead for every run that never introspects it.
    bool track_in_flight = false;

    /// Crash-rejoin support: builds the fresh incarnation installed by
    /// recover_now(pid). Typically returns a TwoBitProcess constructed with
    /// recover_via_catchup = true. Recovering without a factory is a
    /// contract error.
    std::function<std::unique_ptr<ProcessBase>(ProcessId)> recover_factory;
  };

  SimNetwork(std::vector<std::unique_ptr<ProcessBase>> processes,
             Options options);
  ~SimNetwork();
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // ---- time & scheduling -------------------------------------------------
  Tick now() const noexcept { return now_; }

  /// Schedule a client-side event (e.g. "process 2 starts a read") at an
  /// absolute virtual time >= now. Captures up to InlineFn::kInlineBytes
  /// are stored inline (no allocation).
  void schedule_at(Tick when, EventQueue::Fn fn);
  void schedule_after(Tick delay, EventQueue::Fn fn);

  // ---- faults -------------------------------------------------------------
  /// Crash `pid` at time `when`: it processes no event at or after `when`;
  /// messages already sent by it remain in flight (a crash stops the
  /// process, not its packets).
  void crash_at(ProcessId pid, Tick when);
  void crash_now(ProcessId pid);
  bool crashed(ProcessId pid) const;
  std::uint32_t crash_count() const noexcept { return crash_count_; }

  /// Replace crashed `pid` with a fresh incarnation from
  /// Options::recover_factory. Models a process restart on the same
  /// identity: every channel touching pid is re-established, so frames
  /// still in flight to or from the old incarnation are dead on arrival
  /// (channel-epoch fencing below) — exactly what a closed-and-reopened
  /// TCP connection gives the socket runtime. The new incarnation's
  /// on_start runs immediately (it broadcasts CATCHUP when configured with
  /// recover_via_catchup).
  void recover_at(ProcessId pid, Tick when);
  void recover_now(ProcessId pid);
  std::uint32_t recover_count() const noexcept { return recover_count_; }

  // ---- execution ----------------------------------------------------------
  /// Run events until the queue drains or a limit is hit.
  /// Returns true if the queue drained.
  bool run(std::uint64_t max_events = kDefaultMaxEvents,
           Tick max_time = kNever);

  /// Run until `done()` holds (checked after every event) or a limit is hit.
  /// Returns true if `done()` held.
  bool run_until(const std::function<bool()>& done,
                 std::uint64_t max_events = kDefaultMaxEvents,
                 Tick max_time = kNever);

  std::uint64_t events_executed() const noexcept { return events_executed_; }

  // ---- access -------------------------------------------------------------
  std::uint32_t process_count() const {
    return static_cast<std::uint32_t>(processes_.size());
  }
  ProcessBase& process(ProcessId pid);
  template <typename T>
  T& process_as(ProcessId pid) {
    auto* p = dynamic_cast<T*>(&process(pid));
    TBR_ENSURE(p != nullptr, "process has unexpected type");
    return *p;
  }
  NetworkContext& context(ProcessId pid);

  MessageStats& stats() noexcept { return stats_; }
  const MessageStats& stats() const noexcept { return stats_; }
  Rng& rng() noexcept { return rng_; }

  /// Event-queue comparator invocations so far (EventQueue::work_units).
  std::uint64_t scheduler_work_units() const noexcept {
    return queue_.work_units();
  }

  // ---- introspection (invariant observers, P1-style channel checks) -------
  // Requires Options::track_in_flight; reading an untracked registry is a
  // contract error (it would silently return "no frames in flight").
  struct InFlight {
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    std::uint8_t type = 0;
    SeqNo debug_index = -1;
    Tick deliver_at = 0;
  };
  std::vector<InFlight> in_flight() const;
  std::vector<InFlight> in_flight_between(ProcessId from, ProcessId to) const;

  /// Frames destroyed by out-of-model loss injection (Options::loss_rate).
  std::uint64_t frames_lost() const noexcept { return frames_lost_; }

  /// Called after every executed event with the network in a quiescent
  /// state; the lemma-invariant observers hang here. Throwing from the hook
  /// aborts the run (tests use TBR_INVARIANT).
  using Hook = std::function<void(SimNetwork&)>;
  void set_post_event_hook(Hook hook) { post_event_hook_ = std::move(hook); }

  /// Attach a protocol trace (send/deliver/drop/crash events). The log must
  /// outlive the network; pass nullptr to detach.
  void set_trace(TraceLog* trace) { trace_ = trace; }

  static constexpr std::uint64_t kDefaultMaxEvents = 50'000'000;

 private:
  class Context;

  void send_from(ProcessId from, ProcessId to, const Message& msg);
  /// Invalidate every frame currently in flight from -> to (sender-side
  /// half of a channel re-establishment; NetworkContext::fence_peer).
  void fence_from(ProcessId from, ProcessId to);
  /// Execute a Deliver event for pooled frame `frame`: hand it to its
  /// destination, or park it in the node's service FIFO when the capacity
  /// model says its CPU is mid-frame.
  void deliver_frame(ProcessId from, ProcessId to, EventQueue::FrameId frame);
  /// Serve the next parked frame at `to` (fires at busy_until_[to]).
  void drain_service_queue(ProcessId to);
  void step();  // run one event + hook

  // ---- frame pool ---------------------------------------------------------
  /// Copy `msg` into a recycled pool slot (the slot's string capacity is
  /// reused, so steady-state sends never allocate) and return its index.
  EventQueue::FrameId acquire_frame(const Message& msg);
  void release_frame(EventQueue::FrameId frame);

  std::vector<std::unique_ptr<ProcessBase>> processes_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<bool> crashed_;
  std::uint32_t crash_count_ = 0;
  std::uint32_t recover_count_ = 0;
  std::function<std::unique_ptr<ProcessBase>(ProcessId)> recover_factory_;

  /// Channel epochs, flattened [from * n + to]. A frame is stamped with its
  /// channel's epoch at send time and silently dies if the epoch moved
  /// before delivery. recover_now bumps pid's whole row and column (both
  /// directions of every channel touching the restarted process);
  /// fence_from bumps a single cell (a live peer re-establishing its send
  /// side toward a rejoiner). Everything stays at epoch 0 until a recovery
  /// feature is actually exercised.
  std::vector<std::uint32_t> chan_epoch_;
  std::uint32_t chan_epoch(ProcessId from, ProcessId to) const {
    return chan_epoch_[from * processes_.size() + to];
  }
  /// Send-time epoch stamp per pooled frame, parallel to frame_pool_.
  std::deque<std::uint32_t> frame_epoch_;

  EventQueue queue_;
  Tick now_ = 0;
  std::uint64_t events_executed_ = 0;

  Rng rng_;
  std::unique_ptr<DelayModel> delay_;
  double loss_rate_ = 0.0;
  Tick service_time_ = 0;

  /// In-flight frames live here, indexed by EventQueue::FrameId. A deque so
  /// slot references stay valid while a handler's sends grow the pool.
  std::deque<Message> frame_pool_;
  std::vector<EventQueue::FrameId> free_frames_;

  std::vector<Tick> busy_until_;  ///< per-node CPU free time (capacity model)

  /// Frames awaiting a busy node's CPU, FIFO by arrival, as a recycled
  /// vector ring (a deque would churn chunk allocations at every boundary).
  /// Invariant: a non-empty queue has exactly one drain event pending at
  /// busy_until_.
  struct ParkedFrame {
    ProcessId from = kNoProcess;
    EventQueue::FrameId frame = 0;
  };
  class FrameFifo {
   public:
    bool empty() const noexcept { return count_ == 0; }
    std::size_t size() const noexcept { return count_; }
    void push(ParkedFrame f);
    ParkedFrame pop();

   private:
    std::vector<ParkedFrame> ring_;  // capacity always a power of two
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };
  std::vector<FrameFifo> service_queue_;

  std::uint64_t frames_lost_ = 0;
  MessageStats stats_;
  Hook post_event_hook_;
  TraceLog* trace_ = nullptr;

  // In-flight registry keyed by event id (erased on delivery/drop); only
  // maintained when Options::track_in_flight is set.
  bool track_in_flight_ = false;
  std::vector<std::pair<EventQueue::EventId, InFlight>> in_flight_;
  void forget_in_flight(EventQueue::EventId id);
  bool started_ = false;
  void ensure_started();
};

}  // namespace tbr
