// Shared plumbing for the perfbench workloads: wall clock, seeded
// generators, order statistics, chunked history buffers and the result
// record every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds (steady_clock, shared by all threads).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 finalizer: the one mixing function behind every generator.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// A counter-based stream: stream `id` of run seed `seed`. Each draw is a
/// pure function of (seed, id, draw number), so every client's op sequence
/// is fixed by the seed regardless of how threads interleave.
class Stream {
 public:
  Stream(std::uint64_t seed, std::uint64_t id)
      : state_(mix64(seed ^ mix64(id + 0x51ED2701ULL))) {}
  std::uint64_t next() { return mix64(state_++); }
  double u01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty sample.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// num / den for counters, 0 when nothing was counted.
inline double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }
template <typename N, typename D>
double ratio(N num, D den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// The benchmark's run-level statistic over repeated windows. The host's
// other tenants only ever slow a window down (cache and memory pressure,
// wakeup latency), so the best 2% of windows track the program's own speed
// more steadily than the median. On a shared 4-vCPU VM the single-threaded
// simulator's speed swung by up to 2x in slow and fast stretches of 0.5 s
// to minutes, while a pure ALU loop beside it stayed within 15%; over seven
// 30 s runs the best 2% of its 1000-op windows (a few ms each) spread 7% of
// the median, the median of the same windows 54%. Windows must be short
// enough to catch the fast moments: the best 2% of whole 20000-op episodes
// spread up to 37%.
inline double best_high(std::vector<double> v) { return quantile(v, 0.98); }
inline double best_low(std::vector<double> v) { return quantile(v, 0.02); }

/// Append-only log of fixed-size chunks: growth never copies or moves
/// recorded entries, and `reserve` allocates chunks ahead of the timed
/// window so recording costs a store, not an allocation.
template <typename T>
class ChunkedLog {
 public:
  static constexpr std::size_t kChunk = 1u << 16;

  void reserve(std::size_t count) {
    while (chunks_.size() * kChunk < count) {
      chunks_.push_back(std::make_unique<T[]>(kChunk));
    }
  }
  T& push() {
    if (size_ == chunks_.size() * kChunk) {
      chunks_.push_back(std::make_unique<T[]>(kChunk));
    }
    T& slot = chunks_[size_ / kChunk][size_ % kChunk];
    ++size_;
    return slot;
  }
  std::size_t size() const noexcept { return size_; }
  T& operator[](std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }
  const T& operator[](std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  void clear() noexcept { size_ = 0; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 8;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports.
struct Report {
  bool correct = true;
  std::string error;  ///< first correctness failure
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Latency samples of one measurement window.
struct Window {
  double ops_per_s = 0;
  std::vector<double> write_us;
  std::vector<double> read_us;
};

/// One window reduced to its figures, so its samples can be dropped.
struct WindowFigures {
  double ops_per_s = 0;
  double write_p50_us = 0, read_p50_us = 0;
  double write_p99_us = 0, read_p99_us = 0;
  std::size_t writes = 0, reads = 0;
};

inline WindowFigures figures_of(Window& w) {
  WindowFigures f;
  f.ops_per_s = w.ops_per_s;
  f.writes = w.write_us.size();
  f.reads = w.read_us.size();
  f.write_p50_us = quantile(w.write_us, 0.5);
  f.write_p99_us = quantile(w.write_us, 0.99);
  f.read_p50_us = quantile(w.read_us, 0.5);
  f.read_p99_us = quantile(w.read_us, 0.99);
  return f;
}

/// Best-2% figures over the windows of one run (see best_high).
struct WindowSummary {
  double ops_per_s = 0;
  double write_p50_us = 0, read_p50_us = 0;
  double write_p99_us = 0, read_p99_us = 0;
  std::size_t windows = 0;
  std::uint64_t write_samples = 0, read_samples = 0;
};

/// States the sample counts behind a run's latency figures (on stderr:
/// stdout's last line is the result).
inline void note_samples(const char* workload, const WindowSummary& s) {
  std::fprintf(stderr,
               "perfbench: %s: %zu windows, %llu write and %llu read "
               "latency samples\n",
               workload, s.windows,
               static_cast<unsigned long long>(s.write_samples),
               static_cast<unsigned long long>(s.read_samples));
}

inline WindowSummary summarize(const std::vector<WindowFigures>& figures) {
  WindowSummary s;
  s.windows = figures.size();
  std::vector<double> rate, w50, r50, w99, r99;
  for (const WindowFigures& f : figures) {
    s.write_samples += f.writes;
    s.read_samples += f.reads;
    rate.push_back(f.ops_per_s);
    if (f.writes > 0) {
      w50.push_back(f.write_p50_us);
      w99.push_back(f.write_p99_us);
    }
    if (f.reads > 0) {
      r50.push_back(f.read_p50_us);
      r99.push_back(f.read_p99_us);
    }
  }
  s.ops_per_s = best_high(rate);
  s.write_p50_us = best_low(w50);
  s.read_p50_us = best_low(r50);
  s.write_p99_us = best_low(w99);
  s.read_p99_us = best_low(r99);
  return s;
}

inline WindowSummary summarize(std::vector<Window>& windows) {
  std::vector<WindowFigures> figures;
  for (Window& w : windows) figures.push_back(figures_of(w));
  return summarize(figures);
}

}  // namespace perfbench
