// Deterministic discrete-event queue with typed, allocation-free entries.
//
// Events fire in (time, insertion-sequence) order, so equal-time events run
// in the order they were scheduled and a fixed seed yields a fixed run.
//
// The hot path of the simulator is "deliver one frame": those events are a
// tagged struct (from, to, frame-pool slot), not a closure, so scheduling
// one costs zero heap allocations once the backing storage is warm. Drain
// events (the capacity model's per-node CPU) are a second tag. The general
// case — client scripts, crash markers, timer wrappers — remains a
// callable, stored in an InlineFn whose 48-byte inline buffer covers every
// closure the engine itself creates.
//
// The backend is a std::priority_queue binary heap: O(log n) per op and
// robust to any time distribution. The simulator's queues hold tens of
// events (docs/architecture.md, "Event scheduler"), a size at which the
// heap beats bucketed schedulers. It counts comparator invocations as
// "work units" so benches can report scheduler cost deterministically.
//
// The queue does not know how to execute Deliver/Drain events (that needs
// the owning network's frame pool); pop_next() hands the typed entry back
// to the caller for dispatch. run_next() is the closure-only convenience
// used by direct EventQueue clients (tests).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/ids.hpp"
#include "common/inline_fn.hpp"

namespace tbr {

class EventQueue {
 public:
  using EventId = std::uint64_t;
  using Fn = InlineFn;
  /// Index into the owning network's in-flight frame pool.
  using FrameId = std::uint32_t;
  /// Event tag. Deliver/Drain are tag-only (no closure) so scheduling them
  /// never touches the allocator; kClosure carries an InlineFn.
  enum class Kind : std::uint8_t { kClosure, kDeliver, kDrain };

  EventQueue() : heap_(Later{&work_}) {}

  // The heap comparator points back into this object; pin it.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at`. Returns the event's id.
  EventId schedule(Tick at, Fn fn);

  /// Schedule delivery of pooled frame `frame` from `from` to `to`.
  /// Allocation-free in steady state: no closure is materialized.
  EventId schedule_deliver(Tick at, ProcessId from, ProcessId to,
                           FrameId frame);

  /// Schedule a service-queue drain at node `to` (capacity model).
  EventId schedule_drain(Tick at, ProcessId to);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Time of the earliest pending event; kNever when empty. O(1).
  Tick next_time() const noexcept {
    return heap_.empty() ? kNever : heap_.top().at;
  }

  /// A queued event; pop_next() hands it to the caller for dispatch.
  struct Fired {
    Tick at = 0;
    EventId id = 0;  ///< insertion sequence; ties on `at` break by id
    Kind kind = Kind::kClosure;
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    FrameId frame = 0;
    Fn fn;  ///< non-empty iff kind == kClosure
  };

  /// Pop the earliest event WITHOUT running it. The caller dispatches on
  /// `kind` (the simulator's step() owns the frame pool and contexts).
  Fired pop_next();

  /// Pop and run the earliest event; it must be a closure. Convenience for
  /// direct EventQueue users — the network uses pop_next().
  Fired run_next();

  /// Heap comparator invocations so far. Deterministic for a fixed
  /// schedule; perfbench reports it per event as sim.work_units_per_event.
  std::uint64_t work_units() const noexcept { return work_; }

 private:
  struct Later {
    std::uint64_t* work = nullptr;
    bool operator()(const Fired& a, const Fired& b) const {
      ++*work;
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };
  EventId push(Tick at, Kind kind, ProcessId from, ProcessId to,
               FrameId frame, Fn fn);

  std::uint64_t work_ = 0;  ///< must precede heap_ (comparator aims here)
  std::priority_queue<Fired, std::vector<Fired>, Later> heap_;
  EventId next_id_ = 0;
};

}  // namespace tbr
