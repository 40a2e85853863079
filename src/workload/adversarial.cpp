#include "workload/adversarial.hpp"

#include "abd/phased_codec.hpp"
#include "abd/phased_process.hpp"
#include "core/twobit_codec.hpp"
#include "workload/sim_register_group.hpp"

namespace tbr {

namespace {

constexpr Tick kFast = 10;
constexpr Tick kSlow = 1'000'000;

GroupConfig scenario_cfg() {
  GroupConfig cfg;
  cfg.n = 5;
  cfg.t = 2;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

/// Shared driver: warm everyone up with value 1, start write 2, run reader
/// p1 (fresh side) at +30 and reader p2 (stale side) at +200, drain, check.
ScenarioOutcome drive(SimRegisterGroup& group) {
  ScenarioOutcome outcome;
  HistoryLog log;

  // Warm-up: value 1 reaches everyone (possibly over slow links — virtual
  // time is free) so every pairwise freshness relation is established.
  {
    const auto id = log.begin_write(0, group.net().now(), 1,
                                    Value::from_int64(1));
    bool done = false;
    group.client().write(Value::from_int64(1), [&](const OpResult&) {
      log.end_write(id, group.net().now());
      done = true;
    });
    TBR_ENSURE(group.net().run_until([&] { return done; }),
               "warm-up write must complete");
    group.settle();
  }

  const Tick base = group.net().now();
  // The contested write: value 2, held back from the stale side by the
  // scenario's delay model. Completion time depends on the variant.
  const auto write_id =
      log.begin_write(0, base, 2, Value::from_int64(2));
  group.net().schedule_at(base, [&, write_id] {
    group.client().write(Value::from_int64(2), [&, write_id](const OpResult&) {
      log.end_write(write_id, group.net().now());
    });
  });

  // Fresh-side read at p1.
  bool first_done = false;
  group.net().schedule_at(base + 30, [&] {
    const auto id = log.begin_read(1, group.net().now());
    group.client().read(1, [&, id](const OpResult& r) {
      log.end_read(id, group.net().now(), r.value, r.version);
      outcome.first_read_index = r.version;
      first_done = true;
    });
  });

  // Stale-side read at p2, strictly after the fresh read completes in the
  // ablated variants (+200 >> +50) yet well inside the slow window.
  bool second_done = false;
  group.net().schedule_at(base + 200, [&] {
    const auto id = log.begin_read(2, group.net().now());
    group.client().read(2, [&, id](const OpResult& r) {
      log.end_read(id, group.net().now(), r.value, r.version);
      outcome.second_read_index = r.version;
      second_done = true;
    });
  });

  TBR_ENSURE(group.net().run(), "scenario must drain");
  outcome.both_completed = first_done && second_done;
  outcome.stats = SwmrChecker::analyze(log.ops(), Value::from_int64(0));
  return outcome;
}

bool is_write_frame_twobit(const Message& msg) { return msg.type <= 1; }

}  // namespace

ScenarioOutcome run_twobit_inversion_scenario(const TwoBitOptions& options) {
  SimRegisterGroup::Options gopt;
  gopt.cfg = scenario_cfg();
  gopt.seed = 1;
  // WRITE frames from the fresh side {p0, p1} towards {p2, p3, p4} crawl;
  // all control frames and all other channels are instant.
  gopt.delay = make_frame_delay(
      [](ProcessId from, ProcessId to, const Message& msg) {
        const bool slow = is_write_frame_twobit(msg) && from <= 1 && to >= 2;
        return slow ? kSlow : kFast;
      });
  gopt.process_factory = [options](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<TwoBitProcess>(cfg, pid, options);
  };
  SimRegisterGroup group(std::move(gopt));
  return drive(group);
}

ScenarioOutcome run_abd_inversion_scenario(bool regular) {
  SimRegisterGroup::Options gopt;
  gopt.cfg = scenario_cfg();
  gopt.seed = 1;
  // Any frame carrying value #2 (disseminations, query replies, write-backs)
  // from the fresh side towards {p2, p3, p4} crawls.
  gopt.delay = make_frame_delay(
      [](ProcessId from, ProcessId to, const Message& msg) {
        const bool carries_new = msg.has_value && msg.seq >= 2;
        const bool slow = carries_new && from <= 1 && to >= 2;
        return slow ? kSlow : kFast;
      });
  gopt.process_factory = [regular](const GroupConfig& cfg, ProcessId pid) {
    return regular ? make_abd_regular_process(cfg, pid)
                   : make_abd_unbounded_process(cfg, pid);
  };
  SimRegisterGroup group(std::move(gopt));
  return drive(group);
}

ScenarioOutcome run_twobit_stale_read_scenario(const TwoBitOptions& options) {
  SimRegisterGroup::Options gopt;
  gopt.cfg = scenario_cfg();
  gopt.seed = 1;
  // Value dissemination towards {p1, p2} crawls; the write still completes
  // quickly against the quorum {p0, p3, p4}. The reader at p2 then starts a
  // read strictly after the write completed.
  gopt.delay = make_frame_delay(
      [](ProcessId from, ProcessId to, const Message& msg) {
        const bool to_stale = to == 1 || to == 2;
        const bool from_stale = from == 1 || from == 2;
        const bool slow =
            is_write_frame_twobit(msg) && to_stale && !from_stale;
        return slow ? kSlow : kFast;
      });
  gopt.process_factory = [options](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<TwoBitProcess>(cfg, pid, options);
  };
  SimRegisterGroup group(std::move(gopt));

  ScenarioOutcome outcome;
  HistoryLog log;
  {
    const auto id = log.begin_write(0, group.net().now(), 1,
                                    Value::from_int64(1));
    bool done = false;
    group.client().write(Value::from_int64(1), [&](const OpResult&) {
      log.end_write(id, group.net().now());
      done = true;
    });
    TBR_ENSURE(group.net().run_until([&] { return done; }),
               "warm-up write must complete");
    group.settle();
  }

  const Tick base = group.net().now();
  bool write_done = false;
  const auto write_id = log.begin_write(0, base, 2, Value::from_int64(2));
  group.net().schedule_at(base, [&, write_id] {
    group.client().write(Value::from_int64(2), [&, write_id](const OpResult&) {
      log.end_write(write_id, group.net().now());
      write_done = true;
    });
  });
  // The write completes against {p0, p3, p4} within ~2 fast hops.
  TBR_ENSURE(group.net().run_until([&] { return write_done; },
                                   SimNetwork::kDefaultMaxEvents,
                                   base + 1000),
             "write must complete against the fast-side quorum");

  bool read_done = false;
  group.net().schedule_after(10, [&] {
    const auto id = log.begin_read(2, group.net().now());
    group.client().read(2, [&, id](const OpResult& r) {
      log.end_read(id, group.net().now(), r.value, r.version);
      outcome.second_read_index = r.version;
      read_done = true;
    });
  });
  TBR_ENSURE(group.net().run(), "scenario must drain");
  outcome.both_completed = read_done;
  outcome.first_read_index = 2;  // what a correct read must return
  outcome.stats = SwmrChecker::analyze(log.ops(), Value::from_int64(0));
  return outcome;
}

}  // namespace tbr
