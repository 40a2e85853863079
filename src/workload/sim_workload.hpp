// Closed-loop randomized workloads over the simulator, producing operation
// histories for the atomicity checker plus traffic/latency measurements.
//
// Each process runs a client loop: issue an operation, wait for completion,
// think for a random interval, repeat, up to its quota. The writer issues
// writes (optionally interleaving reads); every other process issues reads.
// Crashes follow a FaultPlan. This is the engine behind the property-based
// correctness suite and several benches.
#pragma once

#include <memory>
#include <vector>

#include "checker/history.hpp"
#include "checker/swmr_checker.hpp"
#include "metrics/histogram.hpp"
#include "sim/fault_plan.hpp"
#include "workload/sim_register_group.hpp"

namespace tbr {

struct SimWorkloadOptions {
  GroupConfig cfg;
  Algorithm algo = Algorithm::kTwoBit;
  std::uint64_t seed = 1;

  /// Operations each live process tries to complete.
  std::uint32_t ops_per_process = 16;
  /// Writer interleaves reads with this probability per operation.
  double writer_read_fraction = 0.0;
  /// Uniform think time in [0, think_time_max] ticks between operations.
  Tick think_time_max = 2000;

  /// Delay model factory (nullptr => UniformDelay(1, 1000)).
  std::function<std::unique_ptr<DelayModel>(const GroupConfig&)> delay_factory;

  /// Optional process-construction override (ablation variants etc.);
  /// forwarded to SimRegisterGroup::Options::process_factory.
  std::function<std::unique_ptr<RegisterProcessBase>(const GroupConfig&,
                                                     ProcessId)>
      process_factory;

  /// Crashes: up to `crashes` victims (<= cfg.t) at random times within
  /// `crash_horizon` ticks.
  std::uint32_t crashes = 0;
  bool allow_writer_crash = false;
  Tick crash_horizon = 50'000;

  /// Install the two-bit lemma-invariant observer (Algorithm::kTwoBit only).
  bool invariant_checks = false;

  /// OUT-OF-MODEL loss injection for the D8 model-boundary experiment.
  double loss_rate = 0.0;

  /// Per-node frame service time (SimNetwork capacity model); 0 = off.
  Tick service_time = 0;
};

struct SimWorkloadResult {
  std::vector<OpRecord> ops;
  MessageStats stats;
  Tick duration = 0;
  bool drained = false;             ///< simulator ran out of events (normal)
  std::uint32_t crashes = 0;        ///< crashes that actually happened
  std::uint64_t invariant_checks = 0;
  Histogram write_latency;
  Histogram read_latency;

  /// Ops completed by processes that never crashed — the liveness theorem
  /// (Lemmas 8/9) says this must equal their full quota.
  std::uint32_t completed_by_correct = 0;
  std::uint32_t quota_of_correct = 0;

  /// Convenience: run the fast atomicity checker over `ops`.
  CheckResult check_atomicity(const Value& initial) const {
    return SwmrChecker::check(ops, initial);
  }
};

SimWorkloadResult run_sim_workload(const SimWorkloadOptions& options);

}  // namespace tbr
