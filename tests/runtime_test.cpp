// Threaded-runtime tests: real concurrency, the unified client, crash
// semantics, and linearizability of histories produced under genuine
// thread interleavings.
#include <gtest/gtest.h>

#include "runtime/thread_network.hpp"
#include "workload/live_workload.hpp"

namespace tbr {
namespace {

GroupConfig make_cfg(std::uint32_t n, std::uint32_t t) {
  GroupConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

ThreadNetwork::Options net_options(Algorithm algo, std::uint32_t n,
                                   std::uint32_t t) {
  ThreadNetwork::Options opt;
  opt.cfg = make_cfg(n, t);
  opt.algo = algo;
  opt.min_delay_us = 0;
  opt.max_delay_us = 100;
  return opt;
}

TEST(ThreadNetworkTest, WriteThenReadEverywhere) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 5, 2));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(77)).status.ok());
  for (ProcessId pid = 0; pid < 5; ++pid) {
    const OpResult out = net.client().read_sync(pid);
    EXPECT_EQ(out.value.to_int64(), 77) << "process " << pid;
    EXPECT_EQ(out.version, 1);
  }
  net.stop();
}

TEST(ThreadNetworkTest, SequentialWritesVisibleInOrder) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  for (int k = 1; k <= 25; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
    const OpResult out =
        net.client().read_sync(static_cast<ProcessId>(k % 3));
    EXPECT_EQ(out.value.to_int64(), k);
  }
  net.stop();
}

TEST(ThreadNetworkTest, LatenciesArePositive) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  const OpResult w = net.client().write_sync(Value::from_int64(1));
  EXPECT_GT(w.latency, 0);
  const OpResult r = net.client().read_sync(2);
  EXPECT_GT(r.latency, 0);
  net.stop();
}

TEST(ThreadNetworkTest, CrashedProcessRejectsOps) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 5, 2));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.crash(4);
  // Wait until the crash marker has been consumed.
  while (!net.crashed(4)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(net.client().read_sync(4).status.code(), StatusCode::kCrashed);
  // The rest of the group keeps working.
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(2)).status.ok());
  EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 2);
  net.stop();
}

TEST(ThreadNetworkTest, StatsAccumulate) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  const auto stats = net.stats_snapshot();
  EXPECT_GT(stats.total_sent(), 0u);
  EXPECT_EQ(stats.max_control_bits_per_msg(), 2u);
  net.stop();
}

TEST(ThreadNetworkTest, StopIsIdempotentAndDestructorSafe) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.stop();
  net.stop();  // second stop is a no-op
}

TEST(ThreadNetworkTest, BaselinesRunOnThreadsToo) {
  for (const auto algo :
       {Algorithm::kAbdUnbounded, Algorithm::kAbdBounded, Algorithm::kAttiya}) {
    ThreadNetwork net(net_options(algo, 3, 1));
    net.start();
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(11)).status.ok());
    EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 11)
        << algorithm_name(algo);
    net.stop();
  }
}

// ---- concurrent workloads with atomicity checking -----------------------------------

struct ThreadLinCase {
  Algorithm algo;
  std::uint32_t n;
  std::uint32_t t;
  std::uint32_t crashes;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<ThreadLinCase>& info) {
  const auto& c = info.param;
  std::string name = algorithm_name(c.algo);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name + "_n" + std::to_string(c.n) + "c" + std::to_string(c.crashes) +
         "_s" + std::to_string(c.seed);
}

class ThreadedLinearizability : public testing::TestWithParam<ThreadLinCase> {
};

TEST_P(ThreadedLinearizability, ConcurrentHistoryIsAtomic) {
  const auto& c = GetParam();
  ThreadNetwork::Options opt = net_options(c.algo, c.n, c.t);
  opt.seed = c.seed;
  opt.max_delay_us = 250;
  ThreadNetwork net(opt);
  const auto result = run_live_workload(
      net, {.seed = c.seed, .ops_per_process = 24, .crashes = c.crashes});
  const auto check = result.check_atomicity(opt.cfg.initial);
  EXPECT_TRUE(check.ok) << check.error;
  if (c.crashes == 0) {
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
  }
  EXPECT_GT(net.stats_snapshot().total_sent(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreadedLinearizability,
    testing::Values(ThreadLinCase{Algorithm::kTwoBit, 3, 1, 0, 1},
                    ThreadLinCase{Algorithm::kTwoBit, 5, 2, 0, 2},
                    ThreadLinCase{Algorithm::kTwoBit, 5, 2, 0, 3},
                    ThreadLinCase{Algorithm::kTwoBit, 7, 3, 0, 4},
                    ThreadLinCase{Algorithm::kTwoBit, 5, 2, 2, 5},
                    ThreadLinCase{Algorithm::kTwoBit, 7, 3, 3, 6},
                    ThreadLinCase{Algorithm::kTwoBit, 9, 4, 4, 11},
                    ThreadLinCase{Algorithm::kAbdUnbounded, 5, 2, 0, 7},
                    ThreadLinCase{Algorithm::kAbdUnbounded, 5, 2, 2, 8},
                    ThreadLinCase{Algorithm::kAbdUnbounded, 7, 3, 3, 12},
                    ThreadLinCase{Algorithm::kAbdBounded, 3, 1, 0, 9},
                    ThreadLinCase{Algorithm::kAbdBounded, 5, 2, 2, 13},
                    ThreadLinCase{Algorithm::kAttiya, 3, 1, 0, 10},
                    ThreadLinCase{Algorithm::kAttiya, 5, 2, 2, 14}),
    case_name);

}  // namespace
}  // namespace tbr
