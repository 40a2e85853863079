// The three benchmark workloads. Each runs against an engine's public API
// with default Options except the settings its README row lists, checks
// its histories, and fills a Report: end-to-end metrics when
// args.trace == false, per-layer metrics (from an untraced half-run and a
// traced half-run) when args.trace == true.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Untimed warm-up at the start of every measured run, and the length of
/// the windows the run-level figures are taken over (common.hpp best_high).
inline constexpr double kWarmupS = 0.5;
inline constexpr double kWindowS = 0.1;

/// The threaded engines run as back-to-back sub-runs of kSubRunS seconds,
/// each on a fresh engine (fresh threads, fresh placement on the vCPUs),
/// with kSetupsPerSubRun set-ups timed before each; the windows of all
/// sub-runs are pooled. setup_s is the median of all set-ups.
inline constexpr double kSubRunS = 2.5;
inline constexpr int kSetupsPerSubRun = 4;

/// What a pooled run of sub-runs yields.
struct Pooled {
  WindowSummary summary;
  double setup_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::string error;
};

/// `measure(k, seconds)` runs sub-run k and returns something with
/// windows / ops / failed / error; `setup(k, i)` times one set-up in
/// seconds (0 = the set-up op failed).
template <typename Measure, typename Setup>
Pooled pooled(double seconds, Measure&& measure, Setup&& setup) {
  Pooled p;
  std::vector<Window> windows;
  std::vector<double> setups;
  const int runs = std::max(1, static_cast<int>(seconds / kSubRunS));
  for (int k = 0; k < runs && p.error.empty(); ++k) {
    for (int i = 0; i < kSetupsPerSubRun; ++i) {
      const double s = setup(k, i);
      if (s <= 0) p.error = "set-up op failed";
      setups.push_back(s);
    }
    auto r = measure(k, seconds / runs);
    for (auto& w : r.windows) windows.push_back(std::move(w));
    p.ops += r.ops;
    p.failed += r.failed;
    if (p.error.empty()) p.error = r.error;
  }
  p.summary = summarize(windows);
  p.setup_s = median(setups);
  return p;
}

Report run_socket_rw(const Args& args);
Report run_kv_zipf(const Args& args);
Report run_sim_crash_rejoin(const Args& args);

}  // namespace perfbench
