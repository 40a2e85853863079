// Model-boundary tests: the CAMP model's two assumptions — reliable
// channels and a crashed minority — are each *necessary*. Violating either
// must never corrupt safety (completed operations stay atomic) but must
// break liveness, and the harness must detect both outcomes.
#include <gtest/gtest.h>

#include "workload/sim_workload.hpp"

namespace tbr {
namespace {

// ---- reliable channels are necessary ----------------------------------------------

class LossSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(LossSweep, LossNeverBreaksSafety) {
  // Whatever completes under 5% frame loss must still be atomic.
  for (const auto algo : {Algorithm::kTwoBit, Algorithm::kAbdUnbounded}) {
    SimWorkloadOptions opt;
    opt.cfg.n = 5;
    opt.cfg.t = 2;
    opt.cfg.writer = 0;
    opt.cfg.initial = Value::from_int64(0);
    opt.algo = algo;
    opt.seed = GetParam();
    opt.ops_per_process = 10;
    opt.think_time_max = 300;
    opt.loss_rate = 0.05;
    const auto result = run_sim_workload(opt);
    EXPECT_TRUE(result.drained) << algorithm_name(algo);
    const auto check = result.check_atomicity(opt.cfg.initial);
    EXPECT_TRUE(check.ok) << algorithm_name(algo) << ": " << check.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossSweep, testing::Range<std::uint64_t>(0, 8));

TEST(ModelBoundary, LossEventuallyStallsTheProtocols) {
  // Neither algorithm retransmits (the model promises reliable channels),
  // so with enough traffic and loss, some correct process's operation hangs
  // forever. Demonstrated across a seed sweep: at 10% loss at least one run
  // must fail to complete its quota — and usually most do.
  for (const auto algo : {Algorithm::kTwoBit, Algorithm::kAbdUnbounded}) {
    std::uint32_t stalled_runs = 0;
    std::uint64_t lost_total = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      SimWorkloadOptions opt;
      opt.cfg.n = 5;
      opt.cfg.t = 2;
      opt.cfg.writer = 0;
      opt.cfg.initial = Value::from_int64(0);
      opt.algo = algo;
      opt.seed = seed;
      opt.ops_per_process = 20;
      opt.think_time_max = 200;
      opt.loss_rate = 0.10;
      const auto result = run_sim_workload(opt);
      EXPECT_TRUE(result.drained);
      lost_total += result.stats.total_dropped();
      if (result.completed_by_correct < result.quota_of_correct) {
        ++stalled_runs;
      }
      // Safety must survive even in stalled runs.
      const auto check = result.check_atomicity(opt.cfg.initial);
      EXPECT_TRUE(check.ok) << check.error;
    }
    EXPECT_GT(stalled_runs, 0u)
        << algorithm_name(algo)
        << ": 10% loss should stall at least one of 10 runs";
    EXPECT_GT(lost_total, 0u);
  }
}

TEST(ModelBoundary, ZeroLossRemainsFullyLive) {
  SimWorkloadOptions opt;
  opt.cfg.n = 5;
  opt.cfg.t = 2;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  opt.seed = 3;
  opt.ops_per_process = 20;
  opt.loss_rate = 0.0;
  const auto result = run_sim_workload(opt);
  EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
}

// ---- t < n/2 is necessary ------------------------------------------------------------

TEST(ModelBoundary, MajorityCrashStallsWritesButKeepsSafety) {
  SimRegisterGroup::Options gopt;
  gopt.cfg.n = 5;
  gopt.cfg.t = 2;
  gopt.cfg.writer = 0;
  gopt.cfg.initial = Value::from_int64(0);
  gopt.algo = Algorithm::kTwoBit;
  SimRegisterGroup group(std::move(gopt));
  group.client().write_sync(Value::from_int64(1));

  // Kill a majority: quorums of n-t = 3 are now unreachable.
  group.crash(2);
  group.crash(3);
  group.crash(4);

  bool write_done = false;
  group.client().write(Value::from_int64(2),
                       [&](const OpResult&) { write_done = true; });
  bool read_done = false;
  SeqNo read_idx = -1;
  group.client().read(1, [&](const OpResult& r) {
    read_done = true;
    read_idx = r.version;
  });
  EXPECT_TRUE(group.net().run());  // drains: nothing left to deliver
  EXPECT_FALSE(write_done) << "a write must hang without a live quorum";
  EXPECT_FALSE(read_done) << "a read must hang without a live quorum";
  (void)read_idx;
}

TEST(ModelBoundary, ExactlyHalfAliveIsNotEnough) {
  // n = 4, two crashed: 2 alive = n/2 < quorum n-t = 3.
  SimRegisterGroup::Options gopt;
  gopt.cfg.n = 4;
  gopt.cfg.t = 1;
  gopt.cfg.writer = 0;
  gopt.cfg.initial = Value::from_int64(0);
  gopt.algo = Algorithm::kAbdUnbounded;
  SimRegisterGroup group(std::move(gopt));
  group.crash(2);
  group.crash(3);
  bool done = false;
  group.client().write(Value::from_int64(1),
                       [&](const OpResult&) { done = true; });
  EXPECT_TRUE(group.net().run());
  EXPECT_FALSE(done);
}

TEST(ModelBoundary, OneMoreAliveProcessRestoresLiveness) {
  // Same as above but only one crash (within t): everything works.
  SimRegisterGroup::Options gopt;
  gopt.cfg.n = 4;
  gopt.cfg.t = 1;
  gopt.cfg.writer = 0;
  gopt.cfg.initial = Value::from_int64(0);
  gopt.algo = Algorithm::kAbdUnbounded;
  SimRegisterGroup group(std::move(gopt));
  group.crash(3);
  group.client().write_sync(Value::from_int64(1));
  EXPECT_EQ(group.client().read_sync(1).value.to_int64(), 1);
}

}  // namespace
}  // namespace tbr
