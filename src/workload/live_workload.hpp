// Closed-loop workload over a live runtime (ThreadNetwork or
// SocketNetwork): real concurrency, real clocks, the same atomicity
// checking as the simulator workloads. One driver serves both runtimes.
// The caller builds and owns the network (delays, loops, watermarks,
// process factories) and reads stats_snapshot() / backpressure_snapshot()
// itself once the run returns.
#pragma once

#include <cstdint>
#include <vector>

#include "checker/history.hpp"
#include "checker/swmr_checker.hpp"

namespace tbr {

class SocketNetwork;
class ThreadNetwork;

struct LiveWorkloadOptions {
  std::uint64_t seed = 1;
  std::uint32_t ops_per_process = 24;
  /// Processes to crash (<= cfg.t, never the writer) 5 ms into the run.
  std::uint32_t crashes = 0;
};

struct LiveWorkloadResult {
  std::vector<OpRecord> ops;
  std::uint32_t completed_by_correct = 0;
  std::uint32_t quota_of_correct = 0;

  CheckResult check_atomicity(const Value& initial) const {
    return SwmrChecker::check(ops, initial);
  }
};

/// start() `net` (idempotent), then run one client thread per process: the
/// writer writes 1, 2, ... and every other process reads at itself, with a
/// seeded 0-200 us think time between ops. A process's client stops at its
/// first failed op (its process crashed). Returns once every client has
/// finished; the network keeps running.
LiveWorkloadResult run_live_workload(ThreadNetwork& net,
                                     const LiveWorkloadOptions& options);
LiveWorkloadResult run_live_workload(SocketNetwork& net,
                                     const LiveWorkloadOptions& options);

}  // namespace tbr
