// Simulator tests: event ordering, determinism, delay models, crash
// semantics, in-flight introspection and post-event hooks.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/contracts.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plan.hpp"
#include "sim/sim_network.hpp"

namespace tbr {
namespace {

// A trivial process that counts deliveries and can bounce messages back.
class PingProcess final : public ProcessBase {
 public:
  void on_message(NetworkContext& net, ProcessId from,
                  const Message& msg) override {
    ++received;
    last_from = from;
    last_type = msg.type;
    if (bounce_budget > 0) {
      --bounce_budget;
      Message reply;
      reply.type = 1;
      reply.wire = {2, 0};
      net.send(from, reply);
    }
  }
  void on_crash() override { crashed = true; }

  int received = 0;
  int bounce_budget = 0;
  ProcessId last_from = kNoProcess;
  std::uint8_t last_type = 255;
  bool crashed = false;
};

std::vector<std::unique_ptr<ProcessBase>> make_pings(std::size_t n) {
  std::vector<std::unique_ptr<ProcessBase>> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<PingProcess>());
  }
  return out;
}

Message mk(std::uint8_t type) {
  Message m;
  m.type = type;
  m.wire = {2, 0};
  return m;
}

// ---- EventQueue ---------------------------------------------------------------

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeAndEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
  q.schedule(42, [] {});
  EXPECT_EQ(q.next_time(), 42);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, RejectsNullAndNegative) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1, nullptr), ContractViolation);
  EXPECT_THROW(q.schedule(-1, [] {}), ContractViolation);
}

// The ordering property: any interleaving of schedules and pops yields the
// same (time, id, kind, routing) pop sequence as a trivially correct
// reference — an unsorted vector whose minimum (at, id) entry is removed on
// each pop. Phases alternate push-heavy and pop-heavy so occupancy sweeps
// up and down; timestamps mix duplicates (equal-time FIFO), small steps and
// +1e9 far-future outliers, and next_time() is checked before every pop.
struct RefEntry {
  Tick at = 0;
  EventQueue::EventId id = 0;
  EventQueue::Kind kind = EventQueue::Kind::kClosure;
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  EventQueue::FrameId frame = 0;
};

void cross_check_reference(std::uint64_t seed) {
  EventQueue q;
  std::vector<RefEntry> ref;
  EventQueue::EventId next_id = 0;
  Rng rng(seed);
  Tick frontier = 0;

  auto ref_min = [&] {
    return std::min_element(ref.begin(), ref.end(),
                            [](const RefEntry& a, const RefEntry& b) {
                              if (a.at != b.at) return a.at < b.at;
                              return a.id < b.id;
                            });
  };
  auto push_one = [&] {
    Tick at = frontier;
    const double shape = rng.uniform01();
    if (shape < 0.25) {
      // duplicate timestamp: FIFO tiebreak by insertion sequence
    } else if (shape < 0.92) {
      at = frontier + rng.uniform(1, 5000);
    } else {
      at = frontier + 1'000'000'000;  // far-future outlier
    }
    const auto kind = rng.uniform(0, 2);
    const auto from = static_cast<ProcessId>(rng.uniform(0, 7));
    const auto to = static_cast<ProcessId>(rng.uniform(0, 7));
    const auto frame = static_cast<EventQueue::FrameId>(rng.uniform(0, 999));
    RefEntry e{at, next_id++, EventQueue::Kind::kClosure, kNoProcess,
               kNoProcess, 0};
    EventQueue::EventId id = 0;
    if (kind == 0) {
      id = q.schedule(at, [] {});
    } else if (kind == 1) {
      id = q.schedule_deliver(at, from, to, frame);
      e.kind = EventQueue::Kind::kDeliver;
      e.from = from;
      e.to = to;
      e.frame = frame;
    } else {
      id = q.schedule_drain(at, to);
      e.kind = EventQueue::Kind::kDrain;
      e.to = to;
    }
    ASSERT_EQ(id, e.id);
    ref.push_back(e);
  };
  auto pop_and_compare = [&] {
    const auto want_it = ref_min();
    const RefEntry want = *want_it;
    ref.erase(want_it);
    ASSERT_EQ(q.next_time(), want.at);
    const auto got = q.pop_next();
    ASSERT_EQ(got.at, want.at);
    ASSERT_EQ(got.id, want.id);
    ASSERT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind));
    ASSERT_EQ(got.from, want.from);
    ASSERT_EQ(got.to, want.to);
    ASSERT_EQ(got.frame, want.frame);
    ASSERT_EQ(static_cast<bool>(got.fn),
              want.kind == EventQueue::Kind::kClosure);
    ASSERT_EQ(q.size(), ref.size());
    frontier = got.at;
  };

  for (int phase = 0; phase < 6; ++phase) {
    const double push_bias = (phase % 2 == 0) ? 0.8 : 0.2;
    for (int step = 0; step < 600; ++step) {
      if (ref.empty() || rng.chance(push_bias)) {
        push_one();
      } else {
        pop_and_compare();
      }
    }
  }
  while (!ref.empty()) pop_and_compare();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
}

TEST(EventQueueTest, PopOrderMatchesReference) {
  for (const std::uint64_t seed : {1u, 42u, 1337u, 3u, 99u}) {
    SCOPED_TRACE(seed);
    cross_check_reference(seed);
  }
}

// ---- delay models -----------------------------------------------------------------

TEST(DelayModelTest, ConstantIsConstant) {
  ConstantDelay d(500);
  Rng rng(1);
  Message m;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.delay(rng, 0, 1, m), 500);
}

TEST(DelayModelTest, UniformStaysInRange) {
  UniformDelay d(10, 20);
  Rng rng(1);
  Message m;
  for (int i = 0; i < 1000; ++i) {
    const auto v = d.delay(rng, 0, 1, m);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
  }
}

TEST(DelayModelTest, ExponentialPositiveAndCapped) {
  ExponentialDelay d(100, 1000);
  Rng rng(1);
  Message m;
  for (int i = 0; i < 1000; ++i) {
    const auto v = d.delay(rng, 0, 1, m);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 1000);
  }
}

TEST(DelayModelTest, FlipFlopAlternatesPerChannel) {
  FlipFlopDelay d(10, 1000, 3);
  Rng rng(1);
  Message m;
  // Channel 0->1: slow, fast, slow, ...
  EXPECT_EQ(d.delay(rng, 0, 1, m), 1000);
  EXPECT_EQ(d.delay(rng, 0, 1, m), 10);
  EXPECT_EQ(d.delay(rng, 0, 1, m), 1000);
  // Independent channel 1->0 starts fresh.
  EXPECT_EQ(d.delay(rng, 1, 0, m), 1000);
}

TEST(DelayModelTest, StragglerSlowsItsLinksOnly) {
  StragglerDelay d(2, 900, 10);
  Rng rng(1);
  Message m;
  EXPECT_EQ(d.delay(rng, 0, 1, m), 10);
  EXPECT_EQ(d.delay(rng, 0, 2, m), 900);
  EXPECT_EQ(d.delay(rng, 2, 1, m), 900);
}

TEST(DelayModelTest, ConstructorContracts) {
  EXPECT_THROW(ConstantDelay(0), ContractViolation);
  EXPECT_THROW(UniformDelay(5, 4), ContractViolation);
  EXPECT_THROW(ExponentialDelay(10, 5), ContractViolation);
  EXPECT_THROW(FlipFlopDelay(10, 10, 2), ContractViolation);
}

// ---- SimNetwork ----------------------------------------------------------------------

TEST(SimNetworkTest, DeliversWithDelay) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(100);
  SimNetwork net(make_pings(2), std::move(opt));
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  EXPECT_TRUE(net.run());
  EXPECT_EQ(net.now(), 100);
  auto& p1 = net.process_as<PingProcess>(1);
  EXPECT_EQ(p1.received, 1);
  EXPECT_EQ(p1.last_from, 0u);
}

TEST(SimNetworkTest, SelfSendIsContractError) {
  SimNetwork net(make_pings(2), {});
  net.schedule_at(0, [&] { net.context(0).send(0, mk(0)); });
  EXPECT_THROW((void)net.run(), ContractViolation);
}

TEST(SimNetworkTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    SimNetwork::Options opt;
    opt.seed = seed;
    opt.delay = make_uniform_delay(1, 1000);
    SimNetwork net(make_pings(3), std::move(opt));
    auto& p0 = net.process_as<PingProcess>(0);
    p0.bounce_budget = 50;
    net.process_as<PingProcess>(1).bounce_budget = 50;
    net.schedule_at(0, [&] { net.context(1).send(0, mk(0)); });
    (void)net.run();
    return std::make_tuple(net.now(), net.events_executed(),
                           net.stats().total_sent());
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimNetworkTest, CrashStopsDelivery) {
  SimNetwork net(make_pings(2), {});
  net.crash_now(1);
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  EXPECT_TRUE(net.run());
  EXPECT_EQ(net.process_as<PingProcess>(1).received, 0);
  EXPECT_EQ(net.stats().total_dropped(), 1u);
  EXPECT_TRUE(net.process_as<PingProcess>(1).crashed);
}

TEST(SimNetworkTest, CrashMidFlightDropsAtDelivery) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(100);
  SimNetwork net(make_pings(2), std::move(opt));
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  net.crash_at(1, 50);  // frame is in flight when the receiver dies
  EXPECT_TRUE(net.run());
  EXPECT_EQ(net.process_as<PingProcess>(1).received, 0);
  EXPECT_EQ(net.stats().total_dropped(), 1u);
}

TEST(SimNetworkTest, CrashedSendersPacketsStillFly) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(100);
  SimNetwork net(make_pings(2), std::move(opt));
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  net.crash_at(0, 10);  // sender dies after sending
  EXPECT_TRUE(net.run());
  EXPECT_EQ(net.process_as<PingProcess>(1).received, 1);
}

TEST(SimNetworkTest, InFlightIntrospection) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(100);
  opt.track_in_flight = true;
  SimNetwork net(make_pings(3), std::move(opt));
  net.schedule_at(0, [&] {
    net.context(0).send(1, mk(0));
    net.context(0).send(2, mk(1));
  });
  // Run just the send event.
  EXPECT_FALSE(net.run(/*max_events=*/1));
  const auto flights = net.in_flight();
  EXPECT_EQ(flights.size(), 2u);
  EXPECT_EQ(net.in_flight_between(0, 1).size(), 1u);
  EXPECT_EQ(net.in_flight_between(1, 0).size(), 0u);
  EXPECT_TRUE(net.run());
  EXPECT_TRUE(net.in_flight().empty());
}

TEST(SimNetworkTest, PostEventHookSeesEveryEvent) {
  SimNetwork net(make_pings(2), {});
  int hooks = 0;
  net.set_post_event_hook([&hooks](SimNetwork&) { ++hooks; });
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  EXPECT_TRUE(net.run());
  EXPECT_EQ(hooks, 2);  // the client event + the delivery
}

TEST(SimNetworkTest, RunUntilPredicate) {
  SimNetwork net(make_pings(2), {});
  auto& p1 = net.process_as<PingProcess>(1);
  for (int i = 0; i < 5; ++i) {
    net.schedule_at(i * 10, [&] { net.context(0).send(1, mk(0)); });
  }
  EXPECT_TRUE(net.run_until([&] { return p1.received >= 2; }));
  EXPECT_EQ(p1.received, 2);
  EXPECT_TRUE(net.run());
  EXPECT_EQ(p1.received, 5);
}

TEST(SimNetworkTest, MaxTimeStopsEarly) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(1000);
  SimNetwork net(make_pings(2), std::move(opt));
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  EXPECT_FALSE(net.run(SimNetwork::kDefaultMaxEvents, /*max_time=*/500));
  EXPECT_EQ(net.process_as<PingProcess>(1).received, 0);
}

TEST(SimNetworkTest, SchedulingInThePastRejected) {
  SimNetwork net(make_pings(1), {});
  net.schedule_at(100, [] {});
  (void)net.run();
  EXPECT_THROW(net.schedule_at(50, [] {}), ContractViolation);
}

TEST(SimNetworkTest, StatsAccumulateWire) {
  SimNetwork net(make_pings(2), {});
  net.schedule_at(0, [&] {
    Message m = mk(0);
    m.wire = {2, 64};
    net.context(0).send(1, m);
  });
  (void)net.run();
  EXPECT_EQ(net.stats().total_control_bits(), 2u);
  EXPECT_EQ(net.stats().total_data_bits(), 64u);
}

// ---- FaultPlan -----------------------------------------------------------------------

GroupConfig small_cfg() {
  GroupConfig cfg;
  cfg.n = 5;
  cfg.t = 2;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

TEST(FaultPlanTest, RandomRespectsBudgetAndWriterFlag) {
  Rng rng(3);
  const auto plan = FaultPlan::random(rng, small_cfg(), 2, 1000,
                                      /*allow_writer=*/false);
  EXPECT_LE(plan.crashes.size(), 2u);
  for (const auto& c : plan.crashes) {
    EXPECT_NE(c.pid, 0u);
    EXPECT_LE(c.at, 1000);
  }
}

TEST(FaultPlanTest, RandomRejectsOverBudget) {
  Rng rng(3);
  EXPECT_THROW(
      (void)FaultPlan::random(rng, small_cfg(), 3, 1000, false),
      ContractViolation);
}

TEST(FaultPlanTest, DeterministicPicksHighestNonWriter) {
  const auto plan = FaultPlan::deterministic(small_cfg(), 2, 77);
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].pid, 4u);
  EXPECT_EQ(plan.crashes[1].pid, 3u);
  EXPECT_EQ(plan.crashes[0].at, 77);
}

TEST(FaultPlanTest, InstallCrashesProcesses) {
  SimNetwork net(make_pings(5), {});
  const auto plan = FaultPlan::deterministic(small_cfg(), 2, 10);
  plan.install(net);
  (void)net.run();
  EXPECT_TRUE(net.crashed(4));
  EXPECT_TRUE(net.crashed(3));
  EXPECT_FALSE(net.crashed(0));
  EXPECT_EQ(net.crash_count(), 2u);
}

}  // namespace
}  // namespace tbr
