// Golden-digest determinism suite.
//
// The EventQueue contract — events fire in (time, insertion-seq) order, so a
// fixed seed yields a fixed run — is load-bearing for every property test in
// the tree. These tests pin entire executions (trace event streams, workload
// histories) to FNV-1a digests captured before the typed-event/frame-pool
// rework of the engine, so any refactor of the scheduling hot path that
// changes ANY ordering, delay draw, drop decision or history is caught
// immediately. If one of these fails, the engine is no longer executing the
// same schedules: do not re-pin the constants without understanding why.

#include <gtest/gtest.h>

#include "sim/trace.hpp"
#include "workload/sim_register_group.hpp"
#include "workload/sim_workload.hpp"

namespace tbr {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix_bytes(std::uint64_t h, const std::string& bytes) {
  h = mix(h, bytes.size());
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t digest_trace(const TraceLog& trace) {
  std::uint64_t h = kFnvOffset;
  for (const auto& e : trace.events()) {
    h = mix(h, static_cast<std::uint64_t>(e.kind));
    h = mix(h, static_cast<std::uint64_t>(e.at));
    h = mix(h, e.from);
    h = mix(h, e.to);
    h = mix(h, e.type);
    h = mix(h, static_cast<std::uint64_t>(e.debug_index));
    h = mix(h, e.has_value ? 1 : 0);
  }
  return h;
}

std::uint64_t digest_result(const SimWorkloadResult& result) {
  std::uint64_t h = kFnvOffset;
  for (const auto& op : result.ops) {
    h = mix(h, static_cast<std::uint64_t>(op.kind));
    h = mix(h, op.proc);
    h = mix(h, static_cast<std::uint64_t>(op.start.tick));
    h = mix(h, op.start.order);
    h = mix(h, static_cast<std::uint64_t>(op.end.tick));
    h = mix(h, op.end.order);
    h = mix(h, op.completed ? 1 : 0);
    h = mix(h, static_cast<std::uint64_t>(op.index));
    h = mix_bytes(h, op.value.bytes());
  }
  h = mix(h, result.stats.total_sent());
  h = mix(h, result.stats.total_dropped());
  h = mix(h, static_cast<std::uint64_t>(result.duration));
  h = mix(h, result.crashes);
  return h;
}

GroupConfig cfg_n(std::uint32_t n) {
  GroupConfig cfg;
  cfg.n = n;
  cfg.t = (n - 1) / 2;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

// A scripted run with overlap, a crash, random (seeded) delays and a trace:
// exercises send/deliver/drop scheduling, crash events, client events and
// timers of the event queue in one deterministic scenario.
std::uint64_t scripted_trace_digest(std::uint64_t seed) {
  SimRegisterGroup::Options opt;
  opt.cfg = cfg_n(5);
  opt.algo = Algorithm::kTwoBit;
  opt.seed = seed;
  opt.delay = make_uniform_delay(1, 1000);
  SimRegisterGroup group(std::move(opt));

  TraceLog trace;
  group.net().set_trace(&trace);

  int writes_done = 0;
  int reads_done = 0;
  RegisterClient& client = group.client();
  OpCallback next_write = [&](const OpResult&) {
    ++writes_done;
    if (writes_done < 12) {
      client.write(Value::from_int64(writes_done), next_write);
    }
  };
  client.write(Value::from_int64(0), next_write);
  // Per-reader closed loops. The callbacks live in a container that
  // outlives the run and are captured by reference — no ownership cycle.
  std::vector<OpCallback> read_cbs(4);
  for (ProcessId reader = 1; reader <= 3; ++reader) {
    read_cbs[reader] = [&, reader](const OpResult&) {
      ++reads_done;
      if (reads_done < 30 && !group.net().crashed(reader)) {
        client.read(reader, read_cbs[reader]);
      }
    };
    client.read(reader, read_cbs[reader]);
  }
  group.crash_at(4, 2500);
  group.net().run();
  group.net().set_trace(nullptr);
  return digest_trace(trace);
}

std::uint64_t workload_digest(Algorithm algo, std::uint64_t seed,
                              std::uint32_t crashes) {
  SimWorkloadOptions opt;
  opt.cfg = cfg_n(5);
  opt.algo = algo;
  opt.seed = seed;
  opt.ops_per_process = 10;
  opt.writer_read_fraction = 0.25;
  opt.crashes = crashes;
  opt.invariant_checks = false;
  return digest_result(run_sim_workload(opt));
}

// Golden digests. Captured at commit 04722b9 (pre-rework event queue);
// identical event orderings across the typed-event refactor is an explicit
// acceptance criterion of the zero-allocation PR.
//
// mt19937_64 output is fixed by the standard, but the distributions
// (uniform_int/real) are implementation-defined, so the pinned constants
// hold per standard library. All CI test jobs run libstdc++; other
// standard libraries still get the run-twice stability check below.
#if defined(__GLIBCXX__)
TEST(DeterminismGolden, TwoBitScriptedTraceSeed42) {
  EXPECT_EQ(scripted_trace_digest(42), 12275735979123642976ULL);
}

TEST(DeterminismGolden, TwoBitScriptedTraceSeed7) {
  EXPECT_EQ(scripted_trace_digest(7), 4688055022592829549ULL);
}

TEST(DeterminismGolden, TwoBitWorkloadSeed1) {
  EXPECT_EQ(workload_digest(Algorithm::kTwoBit, 1, 0), 5804822980810446865ULL);
}

TEST(DeterminismGolden, TwoBitWorkloadSeed9Crashy) {
  EXPECT_EQ(workload_digest(Algorithm::kTwoBit, 9, 2), 16356525218755894778ULL);
}

TEST(DeterminismGolden, AbdWorkloadSeed3) {
  EXPECT_EQ(workload_digest(Algorithm::kAbdUnbounded, 3, 1), 13041571012308724545ULL);
}

// The fast-path read engines ride the same scheduler contract: pin one
// crash-free and one crashy workload per engine so a change to their
// message flow (relay fan-out, echo suppression) shows up as a digest
// diff, not as a silent reordering.
TEST(DeterminismGolden, OhRamWorkloadSeed5) {
  EXPECT_EQ(workload_digest(Algorithm::kOhRam, 5, 0), 2381760943655314305ULL);
}

TEST(DeterminismGolden, OhRamWorkloadSeed13Crashy) {
  EXPECT_EQ(workload_digest(Algorithm::kOhRam, 13, 2), 862416080980553890ULL);
}

TEST(DeterminismGolden, TimeEfficientWorkloadSeed5) {
  EXPECT_EQ(workload_digest(Algorithm::kTimeEfficient, 5, 0), 15779028740564427076ULL);
}

TEST(DeterminismGolden, TimeEfficientWorkloadSeed13Crashy) {
  EXPECT_EQ(workload_digest(Algorithm::kTimeEfficient, 13, 2), 9057313251012063291ULL);
}

#endif  // __GLIBCXX__

TEST(DeterminismGolden, RunTwiceBitIdentical) {
  EXPECT_EQ(scripted_trace_digest(1234), scripted_trace_digest(1234));
  EXPECT_EQ(workload_digest(Algorithm::kTwoBit, 77, 1),
            workload_digest(Algorithm::kTwoBit, 77, 1));
}

TEST(DeterminismGolden, FastReadRunTwiceBitIdentical) {
  for (const auto algo : fastread_algorithms()) {
    EXPECT_EQ(workload_digest(algo, 77, 1), workload_digest(algo, 77, 1))
        << algorithm_name(algo);
  }
}

}  // namespace
}  // namespace tbr
