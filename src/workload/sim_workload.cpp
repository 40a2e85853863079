#include "workload/sim_workload.hpp"

#include <utility>

#include "core/invariants.hpp"

namespace tbr {

namespace {

struct Driver {
  Driver(const SimWorkloadOptions& options, SimRegisterGroup& group)
      : opt(options),
        grp(group),
        workload_rng(options.seed ^ 0xC0FFEE123456789ULL),
        issued(options.cfg.n, 0),
        completed(options.cfg.n, 0) {}

  const SimWorkloadOptions& opt;
  SimRegisterGroup& grp;
  Rng workload_rng;
  HistoryLog log;
  Histogram write_latency;
  Histogram read_latency;
  std::vector<std::uint32_t> issued;
  std::vector<std::uint32_t> completed;
  SeqNo next_write_index = 1;

  void schedule_next(ProcessId pid) {
    const Tick think =
        opt.think_time_max > 0 ? workload_rng.uniform(0, opt.think_time_max)
                               : 0;
    grp.net().schedule_after(think, [this, pid] { issue(pid); });
  }

  void issue(ProcessId pid) {
    if (grp.net().crashed(pid)) return;
    if (issued[pid] >= opt.ops_per_process) return;
    issued[pid] += 1;

    const bool is_writer = (pid == opt.cfg.writer);
    const bool do_write =
        is_writer && !workload_rng.chance(opt.writer_read_fraction);
    const Tick start = grp.net().now();

    if (do_write) {
      const SeqNo index = next_write_index++;
      Value v = Value::from_int64(index);
      const auto id = log.begin_write(pid, start, index, v);
      grp.client().write(std::move(v),
                         [this, pid, id, start](const OpResult&) {
        log.end_write(id, grp.net().now());
        write_latency.add(grp.net().now() - start);
        completed[pid] += 1;
        schedule_next(pid);
      });
    } else {
      const auto id = log.begin_read(pid, start);
      grp.client().read(pid, [this, pid, id, start](const OpResult& r) {
        log.end_read(id, grp.net().now(), r.value, r.version);
        read_latency.add(grp.net().now() - start);
        completed[pid] += 1;
        schedule_next(pid);
      });
    }
  }
};

}  // namespace

SimWorkloadResult run_sim_workload(const SimWorkloadOptions& options) {
  GroupConfig cfg = options.cfg;
  cfg.validate();
  TBR_ENSURE(options.crashes <= cfg.t,
             "workload cannot crash more than t processes");

  SimRegisterGroup::Options group_opt;
  group_opt.cfg = cfg;
  group_opt.algo = options.algo;
  group_opt.seed = options.seed;
  group_opt.delay = options.delay_factory
                        ? options.delay_factory(cfg)
                        : make_uniform_delay(1, 1000);
  group_opt.process_factory = options.process_factory;
  group_opt.loss_rate = options.loss_rate;
  group_opt.service_time = options.service_time;
  // The observer's P1 check walks the per-channel in-flight frames.
  group_opt.track_in_flight = options.invariant_checks;
  SimRegisterGroup group(std::move(group_opt));

  std::unique_ptr<TwoBitInvariantObserver> observer;
  if (options.invariant_checks) {
    TBR_ENSURE(options.algo == Algorithm::kTwoBit,
               "lemma invariants apply to the two-bit algorithm");
    observer = std::make_unique<TwoBitInvariantObserver>(cfg);
    group.net().set_post_event_hook(
        [&obs = *observer](SimNetwork& net) { obs(net); });
  }

  Driver driver(options, group);

  // Crash plan.
  if (options.crashes > 0) {
    Rng fault_rng(options.seed ^ 0xFA117ULL);
    const FaultPlan plan =
        FaultPlan::random(fault_rng, cfg, options.crashes,
                          options.crash_horizon, options.allow_writer_crash);
    plan.install(group.net());
  }

  // Kick off every client at a random offset.
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    driver.schedule_next(pid);
  }

  SimWorkloadResult result;
  result.drained = group.net().run();
  result.duration = group.net().now();
  result.ops = driver.log.ops();
  result.stats = group.net().stats();
  result.crashes = group.net().crash_count();
  result.write_latency = std::move(driver.write_latency);
  result.read_latency = std::move(driver.read_latency);
  if (observer) result.invariant_checks = observer->checks_run();

  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    if (group.net().crashed(pid)) continue;
    result.quota_of_correct += options.ops_per_process;
    result.completed_by_correct += driver.completed[pid];
  }
  return result;
}

}  // namespace tbr
