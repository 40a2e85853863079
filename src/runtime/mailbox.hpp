// Mailbox: the per-process event queue of the threaded runtime, and — in its
// generic MailboxT<T> form — the per-shard operation queue of the sharded
// KV engine.
//
// Exactly one consumer (the owning thread) pops; any thread may push.
// Blocking pop integrates with jthread stop tokens so shutdown never hangs
// (Core Guidelines CP.42: always wait with a condition). `pop_all` is the
// batching primitive: it drains everything queued into a caller-owned
// buffer in one pass, which is what makes a natural batching window — the
// consumer takes whatever accumulated while it was busy with the previous
// batch.
//
// Storage is a recycled power-of-two ring over a vector, not a deque: a
// deque crosses (and frees/reallocates) a chunk boundary every ~few dozen
// envelopes, which on the message hot path is a steady allocation drip.
// The ring grows to the high-water mark once and then never allocates.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.hpp"
#include "net/message.hpp"
#include "net/register_process.hpp"

namespace tbr {

/// A message delivery. `encoded` travels by move from the sender's encode
/// buffer through the dispatcher into the receiving process, which recycles
/// it back to the network's buffer pool after decoding.
struct DeliverEnvelope {
  ProcessId from = kNoProcess;
  std::string encoded;  ///< wire bytes; decoded by the recipient's codec
  /// Channel epoch at send time (crash-rejoin fencing). The receiver drops
  /// the frame if the from->to channel was re-established after the stamp.
  std::uint32_t epoch = 0;
};

struct OpState;

/// Client request: start the pooled operation `*op` on this process. The
/// process thread completes it directly (op->owner->complete), with a
/// uniform Status on the crash and shutdown paths.
struct OpEnvelope {
  OpState* op = nullptr;
};

/// Crash marker: the process stops handling everything at this point.
struct CrashEnvelope {};

/// Rejoin marker: replace the crashed process with a fresh incarnation
/// built by `make` (run on the loop thread, so the new process is
/// constructed where it will live). Handled even while crashed — it is the
/// one envelope that ends the crashed state.
struct RecoverEnvelope {
  RegisterFactory make;
};

/// Timer expiry (NetworkContext::schedule): run `fn` on the process thread.
struct TimerEnvelope {
  std::function<void()> fn;
};

using Envelope = std::variant<DeliverEnvelope, OpEnvelope, CrashEnvelope,
                              RecoverEnvelope, TimerEnvelope>;

template <typename T>
class MailboxT {
 public:
  /// Enqueue; returns false if the box has been closed (shutdown). Takes an
  /// rvalue and moves from it only on success, so a rejected item — e.g. an
  /// envelope carrying a client operation — is still intact for the
  /// caller's failure handling.
  bool push(T&& item) {
    {
      const std::scoped_lock lock(mu_);
      if (closed_) return false;
      if (count_ == ring_.size()) grow();
      ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(item);
      ++count_;
    }
    cv_.notify_one();
    return true;
  }

  /// Block until an item is available or stop is requested / box closed.
  std::optional<T> pop(std::stop_token st) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, st, [this] { return count_ > 0 || closed_; });
    if (count_ == 0) return std::nullopt;  // stopped or closed
    return take();
  }

  /// Block until at least one item is available, then drain up to
  /// `max_items` of them in arrival order (0 = everything queued) into
  /// `out`, which is cleared first — reuse one buffer across calls and the
  /// drain itself never allocates. `out` left empty means stopped or
  /// closed: the consumer's exit signal.
  ///
  /// `min_items` > 1 is a batching-window floor (group-commit style): the
  /// consumer lingers up to `min_wait` for the queue to reach `min_items`
  /// before draining, so pipelined producers get deterministic window
  /// sizes; close(), stop, or the timeout open a partial window anyway.
  void pop_all(std::stop_token st, std::vector<T>& out,
               std::size_t max_items = 0, std::size_t min_items = 1,
               std::chrono::microseconds min_wait =
                   std::chrono::microseconds(0)) {
    out.clear();
    std::unique_lock lock(mu_);
    cv_.wait(lock, st, [this] { return count_ > 0 || closed_; });
    if (min_items > 1 && count_ < min_items && !closed_ &&
        min_wait.count() > 0) {
      (void)cv_.wait_for(lock, st, min_wait, [this, min_items] {
        return count_ >= min_items || closed_;
      });
    }
    if (count_ == 0) return;  // stopped or closed
    const std::size_t take_n =
        max_items == 0 ? count_ : std::min(count_, max_items);
    for (std::size_t k = 0; k < take_n; ++k) out.push_back(take());
  }

  /// Wake consumers and reject further pushes.
  void close() {
    {
      const std::scoped_lock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t depth() const {
    const std::scoped_lock lock(mu_);
    return count_;
  }

 private:
  T take() {
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    return item;
  }

  void grow() {
    std::vector<T> bigger(ring_.empty() ? 8 : ring_.size() * 2);
    for (std::size_t k = 0; k < count_; ++k) {
      bigger[k] = std::move(ring_[(head_ + k) & (ring_.size() - 1)]);
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  mutable std::mutex mu_;
  std::condition_variable_any cv_;
  std::vector<T> ring_;  // capacity always a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
};

/// The threaded register runtime's mailbox (its historical name).
using Mailbox = MailboxT<Envelope>;

}  // namespace tbr
