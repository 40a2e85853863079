#include "sim/event_queue.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace tbr {

EventQueue::EventId EventQueue::push(Tick at, Kind kind, ProcessId from,
                                     ProcessId to, FrameId frame, Fn fn) {
  TBR_ENSURE(at >= 0, "event time must be non-negative");
  const EventId id = next_id_++;
  heap_.push(Fired{at, id, kind, from, to, frame, std::move(fn)});
  return id;
}

EventQueue::EventId EventQueue::schedule(Tick at, Fn fn) {
  TBR_ENSURE(fn != nullptr, "cannot schedule a null event");
  return push(at, Kind::kClosure, kNoProcess, kNoProcess, 0, std::move(fn));
}

EventQueue::EventId EventQueue::schedule_deliver(Tick at, ProcessId from,
                                                 ProcessId to, FrameId frame) {
  return push(at, Kind::kDeliver, from, to, frame, nullptr);
}

EventQueue::EventId EventQueue::schedule_drain(Tick at, ProcessId to) {
  return push(at, Kind::kDrain, kNoProcess, to, 0, nullptr);
}

EventQueue::Fired EventQueue::pop_next() {
  TBR_ENSURE(!heap_.empty(), "pop_next on empty queue");
  // priority_queue::top is const; move out via const_cast of the handle we
  // are about to pop (safe: pop() destroys the source immediately).
  Fired e = std::move(const_cast<Fired&>(heap_.top()));
  heap_.pop();
  return e;
}

EventQueue::Fired EventQueue::run_next() {
  Fired fired = pop_next();
  TBR_ENSURE(fired.kind == Kind::kClosure,
             "run_next popped a typed event; dispatch it via the network");
  fired.fn();
  return fired;
}

}  // namespace tbr
