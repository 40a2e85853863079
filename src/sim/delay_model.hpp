// Message-delay models for the simulated network.
//
// The CAMP model promises only that delays are finite; these models choose
// them. ConstantDelay reproduces the paper's failure-free timing analysis
// (every delay = Δ); the randomized/adversarial models drive reordering so
// the alternating-bit machinery and the atomicity proofs are stress-tested.
#pragma once

#include <functional>
#include <memory>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"

namespace tbr {

class DelayModel {
 public:
  virtual ~DelayModel() = default;
  DelayModel() = default;
  DelayModel(const DelayModel&) = delete;
  DelayModel& operator=(const DelayModel&) = delete;

  /// Transit time (> 0 ticks) for `msg` on channel from -> to.
  virtual Tick delay(Rng& rng, ProcessId from, ProcessId to,
                     const Message& msg) = 0;
};

/// Every message takes exactly Δ: the paper's timing model (Table 1 rows 5-6).
class ConstantDelay final : public DelayModel {
 public:
  explicit ConstantDelay(Tick delta);
  Tick delay(Rng&, ProcessId, ProcessId, const Message&) override;
  Tick delta() const noexcept { return delta_; }

 private:
  Tick delta_;
};

/// Uniform in [lo, hi]: mild asynchrony with frequent reordering.
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(Tick lo, Tick hi);
  Tick delay(Rng& rng, ProcessId, ProcessId, const Message&) override;

 private:
  Tick lo_, hi_;
};

/// Exponential with mean `mean`, truncated at `cap`: heavy-ish tail.
class ExponentialDelay final : public DelayModel {
 public:
  ExponentialDelay(Tick mean, Tick cap);
  Tick delay(Rng& rng, ProcessId, ProcessId, const Message&) override;

 private:
  Tick mean_, cap_;
};

/// Alternates per-channel between `fast` and `slow`, guaranteeing that
/// consecutive messages on a channel bypass each other — the worst case the
/// alternating-bit discipline (Property P1) must absorb.
class FlipFlopDelay final : public DelayModel {
 public:
  FlipFlopDelay(Tick fast, Tick slow, std::uint32_t n);
  Tick delay(Rng&, ProcessId from, ProcessId to, const Message&) override;

 private:
  Tick fast_, slow_;
  std::uint32_t n_;
  std::vector<bool> flip_;  // per ordered channel
};

/// One process's links are slow in both directions; everything else is fast.
/// Models the laggard that the paper's Rule R2 (catch-up forwarding) serves.
class StragglerDelay final : public DelayModel {
 public:
  StragglerDelay(ProcessId straggler, Tick slow, Tick fast);
  Tick delay(Rng&, ProcessId from, ProcessId to, const Message&) override;

 private:
  ProcessId straggler_;
  Tick slow_, fast_;
};

/// Fully programmable delays: the adversarial-schedule scenarios pick the
/// transit time per (channel, frame) — e.g. "WRITE frames towards the stale
/// side of the network are slow, control frames are instant".
class FrameDelay final : public DelayModel {
 public:
  using Fn = std::function<Tick(ProcessId from, ProcessId to,
                                const Message& msg)>;
  explicit FrameDelay(Fn fn);
  Tick delay(Rng&, ProcessId from, ProcessId to, const Message& msg) override;

 private:
  Fn fn_;
};

/// Factory helpers (benches/tests name models by these).
std::unique_ptr<DelayModel> make_constant_delay(Tick delta);
std::unique_ptr<DelayModel> make_uniform_delay(Tick lo, Tick hi);
std::unique_ptr<DelayModel> make_exponential_delay(Tick mean, Tick cap);
std::unique_ptr<DelayModel> make_flipflop_delay(Tick fast, Tick slow,
                                                std::uint32_t n);
std::unique_ptr<DelayModel> make_straggler_delay(ProcessId straggler,
                                                 Tick slow, Tick fast);
std::unique_ptr<DelayModel> make_frame_delay(FrameDelay::Fn fn);

}  // namespace tbr
