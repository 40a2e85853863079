// SimRegisterGroup: a ready-to-use register over the simulated network.
//
// client() is the one way an operation enters the group: write_sync/
// read_sync drive the simulator until the operation completes and report a
// uniform Status; the callback forms (client().write(v, cb)) plus
// net().run_until give full control for overlapping operations, crash
// scheduling and latency sweeps. An op starts its protocol operation
// synchronously inside the submitting call — or, queued behind an op still
// in flight on the same process, inside that op's completion.
#pragma once

#include <memory>

#include "client/client.hpp"
#include "sim/fault_plan.hpp"
#include "sim/sim_network.hpp"
#include "workload/algorithms.hpp"

namespace tbr {

class SimRegisterGroup {
 public:
  struct Options {
    GroupConfig cfg;
    Algorithm algo = Algorithm::kTwoBit;
    std::uint64_t seed = 1;
    /// nullptr => ConstantDelay(kDefaultDelta).
    std::unique_ptr<DelayModel> delay;
    /// Optional override: build each process yourself (e.g. TwoBitProcess
    /// with non-default TwoBitOptions). When set, `algo` is informational.
    RegisterFactory process_factory;

    /// OUT-OF-MODEL loss injection (see SimNetwork::Options::loss_rate);
    /// keep 0 except for the D8 model-boundary experiment.
    double loss_rate = 0.0;

    /// Per-node frame service time (SimNetwork::Options::service_time);
    /// 0 = the pure channel-delay model.
    Tick service_time = 0;

    /// Maintain the in-flight frame registry (SimNetwork::Options::
    /// track_in_flight); required by the P1 channel-invariant observer.
    bool track_in_flight = false;

    /// Optional override for the incarnation built by recover()/recover_at;
    /// unset follows resolve_factories() (workload/algorithms.hpp).
    RegisterFactory recover_factory;
  };
  static constexpr Tick kDefaultDelta = 1000;

  explicit SimRegisterGroup(Options options);
  SimRegisterGroup(SimRegisterGroup&&) noexcept;
  SimRegisterGroup& operator=(SimRegisterGroup&&) noexcept;
  ~SimRegisterGroup();

  // ---- the unified client API ------------------------------------------------
  /// Pooled Ticket/callback completions with uniform Status outcomes
  /// (src/client/client.hpp). wait() drives the simulator until the op
  /// completes; submit-side failures (crashed target) complete immediately
  /// with a non-ok Status instead of throwing. Steady state: zero
  /// allocations per operation. Lazily built; stable across group moves.
  RegisterClient& client();

  /// Let all in-flight protocol traffic drain (e.g. to reach the steady
  /// state in which every process knows every value before a measurement).
  void settle();

  // ---- environment ---------------------------------------------------------------
  void crash(ProcessId pid);            ///< immediately
  void crash_at(ProcessId pid, Tick t);
  /// Rejoin a crashed pid as a fresh incarnation (see Options::
  /// recover_factory). The rejoiner catches up from peer checkpoints; client
  /// reads routed to it while it bootstraps are deferred, not refused.
  void recover(ProcessId pid);
  void recover_at(ProcessId pid, Tick t);
  SimNetwork& net() noexcept { return *net_; }
  const GroupConfig& config() const noexcept { return cfg_; }
  Algorithm algorithm() const noexcept { return algo_; }
  RegisterProcessBase& process(ProcessId pid);

 private:
  class ClientImpl;

  GroupConfig cfg_;
  Algorithm algo_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<ClientImpl> client_impl_;  // engine + RegisterClient
};

}  // namespace tbr
