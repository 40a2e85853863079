// tbr_cli — drive the register implementations from the command line.
//
// Subcommands:
//   run        run a closed-loop workload on the simulator and report
//              traffic, latency and the atomicity verdict
//   kv         drive the sharded KV engine (read-dominated, zipf-skewed)
//              and report throughput + batching effectiveness
//   trace      run a small scripted scenario and print the full protocol
//              trace
//   ops        print per-operation cost identities for a given n
//   modelcheck enumerate (or sample) every schedule of a small scenario
//              and report the verification verdict
//
// Examples:
//   tbr_cli run --algo=twobit --n=7 --ops=50 --crashes=2 --seed=42
//   tbr_cli run --algo=abd-bounded --n=5 --delay=flipflop
//   tbr_cli kv --shards=4 --keys=512 --ops=3000 --read-fraction=0.9
//   tbr_cli kv --algo=ohram --ops=2000
//   tbr_cli trace --algo=twobit --n=3 --writes=2 --reads=1
//   tbr_cli ops --n=9
//   tbr_cli modelcheck --scenario=write-read --n=3
//   tbr_cli modelcheck --scenario=write-read --ablate=line20
//   tbr_cli modelcheck --scenario=two-writes-read --walks=5000
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/twobit_process.hpp"
#include "modelcheck/explorer.hpp"
#include "workload/sharded_workload.hpp"
#include "workload/sim_workload.hpp"

namespace tbr {
namespace {

// --algo: any of the six register protocols, on every subcommand that
// builds registers (run, trace, kv). An unknown name is rejected with the
// accepted list, never replaced by a default.
Algorithm parse_algorithm(const std::string& name) {
  std::vector<Algorithm> algos = all_algorithms();
  const auto& fast = fastread_algorithms();
  algos.insert(algos.end(), fast.begin(), fast.end());
  std::string names;
  for (const auto algo : algos) {
    if (algorithm_name(algo) == name) return algo;
    names += (names.empty() ? "" : ", ") + algorithm_name(algo);
  }
  throw ContractViolation("unknown --algo '" + name + "' (" + names + ")");
}

std::unique_ptr<DelayModel> parse_delay(const std::string& kind,
                                        const GroupConfig& cfg, Tick delta) {
  if (kind == "const") return make_constant_delay(delta);
  if (kind == "uniform") return make_uniform_delay(1, delta);
  if (kind == "expo") return make_exponential_delay(delta / 4, delta * 8);
  if (kind == "flipflop") return make_flipflop_delay(5, delta * 2, cfg.n);
  if (kind == "straggler") {
    return make_straggler_delay(cfg.n - 1, delta * 20, delta);
  }
  throw ContractViolation("unknown --delay '" + kind +
                          "' (const, uniform, expo, flipflop, straggler)");
}

int cmd_run(FlagParser& flags) {
  SimWorkloadOptions opt;
  opt.cfg.n = static_cast<std::uint32_t>(flags.get_int("n"));
  opt.cfg.t = flags.get_int("t") < 0
                  ? (opt.cfg.n - 1) / 2
                  : static_cast<std::uint32_t>(flags.get_int("t"));
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = parse_algorithm(flags.get_string("algo"));
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  opt.ops_per_process = static_cast<std::uint32_t>(flags.get_int("ops"));
  opt.writer_read_fraction = flags.get_double("writer-read-fraction");
  opt.think_time_max = flags.get_int("think");
  opt.crashes = static_cast<std::uint32_t>(flags.get_int("crashes"));
  opt.allow_writer_crash = flags.get_bool("crash-writer");
  opt.invariant_checks =
      flags.get_bool("invariants") && opt.algo == Algorithm::kTwoBit;
  const Tick delta = flags.get_int("delta");
  const std::string delay = flags.get_string("delay");
  opt.delay_factory = [delay, delta](const GroupConfig& cfg) {
    return parse_delay(delay, cfg, delta);
  };

  const auto result = run_sim_workload(opt);
  const auto check = result.check_atomicity(opt.cfg.initial);

  TextTable table({"metric", "value"});
  table.add_row({"algorithm", algorithm_name(opt.algo)});
  table.add_row({"n / t / crashes",
                 std::to_string(opt.cfg.n) + " / " + std::to_string(opt.cfg.t) +
                     " / " + std::to_string(result.crashes)});
  table.add_row({"ops done by correct procs",
                 format_count(result.completed_by_correct) + " / " +
                     format_count(result.quota_of_correct)});
  table.add_row({"virtual duration (ticks)", format_count(
                                                 static_cast<std::uint64_t>(
                                                     result.duration))});
  table.add_row({"messages sent", format_count(result.stats.total_sent())});
  table.add_row(
      {"control bits total",
       format_count(result.stats.total_control_bits())});
  table.add_row({"max control bits/frame",
                 format_count(result.stats.max_control_bits_per_msg())});
  if (!result.write_latency.empty()) {
    table.add_row({"write latency (ticks, min/p50/p99/max)",
                   result.write_latency.summary(1.0, 0)});
  }
  if (!result.read_latency.empty()) {
    table.add_row({"read latency (ticks, min/p50/p99/max)",
                   result.read_latency.summary(1.0, 0)});
  }
  if (result.invariant_checks > 0) {
    table.add_row({"lemma-invariant checks",
                   format_count(result.invariant_checks)});
  }
  table.add_row({"atomicity", check.ok ? "OK" : check.error});
  std::cout << table.render();
  return check.ok ? 0 : 1;
}

int cmd_kv(FlagParser& flags) {
  ShardedWorkloadOptions opt;
  opt.shards = static_cast<std::uint32_t>(flags.get_int("shards"));
  opt.n = static_cast<std::uint32_t>(flags.get_int("n"));
  opt.t = flags.get_int("t") < 0
              ? (opt.n - 1) / 2
              : static_cast<std::uint32_t>(flags.get_int("t"));
  opt.slots_per_shard = static_cast<std::uint32_t>(flags.get_int("slots"));
  opt.keys = static_cast<std::uint32_t>(flags.get_int("keys"));
  opt.zipf_s = flags.get_double("skew");
  opt.read_fraction = flags.get_double("read-fraction");
  opt.total_ops = static_cast<std::uint64_t>(flags.get_int("ops"));
  opt.client_threads = static_cast<std::uint32_t>(flags.get_int("clients"));
  opt.coalesce_writes = flags.get_bool("coalesce-writes");
  opt.min_batch = static_cast<std::size_t>(flags.get_int("min-batch"));
  opt.pin_shard_threads = flags.get_bool("pin");
  opt.engine = parse_algorithm(flags.get_string("algo"));
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  const auto engine = run_sharded_workload(opt);
  const auto projection = project_sharded_capacity(opt);

  TextTable table({"metric", "value"});
  table.add_row({"shards x replicas", std::to_string(opt.shards) + " x " +
                                          std::to_string(opt.n)});
  table.add_row({"register engine", algorithm_name(opt.engine)});
  table.add_row({"keys / slots per shard",
                 std::to_string(opt.keys) + " / " +
                     std::to_string(opt.slots_per_shard)});
  table.add_row({"op mix", format_double(100.0 * opt.read_fraction, 0) +
                               "% reads, zipf s=" +
                               format_double(opt.zipf_s, 2)});
  table.add_row({"engine ops ok / failed",
                 format_count(engine.ops_completed) + " / " +
                     format_count(engine.ops_failed)});
  table.add_row({"engine wall ops/sec",
                 format_double(engine.ops_per_sec, 0)});
  table.add_row({"projected ops/Mtick (capacity model)",
                 format_double(projection.ops_per_mtick, 0)});
  table.add_row({"batching windows", format_count(engine.batch.batches)});
  table.add_row({"largest window (ops)",
                 format_count(engine.batch.max_batch_ops)});
  table.add_row({"protocol reads / client reads",
                 format_count(engine.batch.protocol_reads) + " / " +
                     format_count(engine.batch.protocol_reads +
                                  engine.batch.coalesced_reads)});
  table.add_row({"writes absorbed (last-write-wins)",
                 format_count(engine.batch.absorbed_writes)});
  table.add_row({"frames sent (engine)", format_count(engine.frames)});
  std::cout << table.render();
  return engine.ops_failed == 0 ? 0 : 1;
}

int cmd_trace(FlagParser& flags) {
  GroupConfig cfg;
  cfg.n = static_cast<std::uint32_t>(flags.get_int("n"));
  cfg.t = (cfg.n - 1) / 2;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  const auto algo = parse_algorithm(flags.get_string("algo"));
  const Tick delta = flags.get_int("delta");

  SimRegisterGroup::Options gopt;
  gopt.cfg = cfg;
  gopt.algo = algo;
  gopt.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  gopt.delay = make_constant_delay(delta);
  SimRegisterGroup group(std::move(gopt));

  TraceLog trace;
  group.net().set_trace(&trace);

  const auto writes = flags.get_int("writes");
  const auto reads = flags.get_int("reads");
  for (std::int64_t k = 1; k <= writes; ++k) {
    group.client().write_sync(Value::from_int64(k * 10));
    group.settle();
  }
  for (std::int64_t r = 0; r < reads; ++r) {
    const OpResult out =
        group.client().read_sync(static_cast<ProcessId>((r + 1) % cfg.n));
    std::cout << "read -> value #" << out.version << " ("
              << out.value.debug_string() << ")\n";
    group.settle();
  }

  std::cout << "\nprotocol trace (" << trace.size() << " events, times in D="
            << delta << " ticks):\n";
  std::cout << trace.render(group.process(0).codec(), delta);
  return 0;
}

int cmd_ops(FlagParser& flags) {
  const auto n = static_cast<std::uint64_t>(flags.get_int("n"));
  TextTable table({"algorithm", "msgs/write", "msgs/read", "write time",
                   "read time (worst)"});
  table.add_row({"abd-unbounded", format_count(2 * (n - 1)),
                 format_count(4 * (n - 1)), "2 D", "4 D"});
  table.add_row({"abd-bounded", format_count(6 * n * (n - 1)),
                 format_count(6 * n * (n - 1)), "12 D", "12 D"});
  table.add_row({"attiya", format_count(14 * (n - 1)),
                 format_count(18 * (n - 1)), "14 D", "18 D"});
  table.add_row({"twobit", format_count(n * (n - 1)),
                 format_count(2 * (n - 1)), "2 D", "4 D"});
  std::cout << table.render();
  return 0;
}

int cmd_modelcheck(FlagParser& flags) {
  Scenario scenario;
  scenario.cfg.n = static_cast<std::uint32_t>(flags.get_int("n"));
  scenario.cfg.t = flags.get_int("t") < 0
                       ? (scenario.cfg.n - 1) / 2
                       : static_cast<std::uint32_t>(flags.get_int("t"));
  scenario.cfg.writer = 0;
  scenario.cfg.initial = Value::from_int64(0);

  const std::string shape = flags.get_string("scenario");
  const auto write = [](std::int64_t v, int after = -1) {
    return McOp{McOp::Kind::kWrite, 0, Value::from_int64(v), after};
  };
  const auto read = [](ProcessId p, int after = -1) {
    return McOp{McOp::Kind::kRead, p, Value(), after};
  };
  if (shape == "write") {
    scenario.ops = {write(1)};
  } else if (shape == "write-read") {
    scenario.ops = {write(1), read(1)};
  } else if (shape == "write-then-read") {
    scenario.ops = {write(1), read(scenario.cfg.n - 1, 0)};
  } else if (shape == "two-writes-read") {
    scenario.ops = {write(1), write(2, 0), read(1)};
  } else if (shape == "write-crash") {
    scenario.ops = {write(1)};
    scenario.max_crashes = 1;
    for (ProcessId p = 1; p < scenario.cfg.n; ++p) {
      scenario.crash_candidates.push_back(p);
    }
  } else {
    throw ContractViolation(
        "unknown --scenario '" + shape +
        "' (write, write-read, write-then-read, two-writes-read, "
        "write-crash)");
  }

  const std::string ablate = flags.get_string("ablate");
  if (ablate != "none") {
    TwoBitOptions topt;
    if (ablate == "line20") {
      topt.eager_proceed = true;
    } else if (ablate == "line9") {
      topt.skip_read_second_wait = true;
    } else if (ablate == "window") {
      topt.history_window = 1;
    } else {
      throw ContractViolation("unknown --ablate '" + ablate +
                              "' (none, line20, line9, window)");
    }
    scenario.factory = [topt](const GroupConfig& cfg, ProcessId pid) {
      return std::make_unique<TwoBitProcess>(cfg, pid, topt);
    };
  }

  ExploreOptions mc_opt;
  mc_opt.max_nodes =
      static_cast<std::uint64_t>(flags.get_int("max-nodes"));
  const auto walks = static_cast<std::uint64_t>(flags.get_int("walks"));
  const auto result =
      walks == 0
          ? explore(scenario, mc_opt)
          : random_walks(scenario, walks,
                         static_cast<std::uint64_t>(flags.get_int("seed")),
                         mc_opt);

  TextTable table({"metric", "value"});
  table.add_row({"scenario", shape + (ablate == "none" ? "" : " (ablated: " +
                                                                  ablate +
                                                                  ")")});
  table.add_row({"mode", walks == 0 ? "exhaustive DFS"
                                    : format_count(walks) + " random walks"});
  table.add_row({"prefixes replayed", format_count(result.nodes_visited)});
  table.add_row(
      {"terminal schedules", format_count(result.terminal_schedules)});
  table.add_row({"max depth", std::to_string(result.max_depth_seen)});
  table.add_row({"coverage", result.complete ? "complete (all schedules)"
                                             : "bounded (budget/sampling)"});
  table.add_row({"violations", format_count(result.violations_found)});
  std::cout << table.render();
  for (std::size_t k = 0; k < result.violations.size(); ++k) {
    const auto& violation = result.violations[k];
    std::cout << "\nviolation " << k + 1 << ": " << violation.detail
              << "\n  schedule:";
    for (const auto choice : violation.schedule) std::cout << ' ' << choice;
    std::cout << "\n";
  }
  return result.ok() ? 0 : 1;
}

int real_main(int argc, char** argv) {
  FlagParser flags("tbr_cli",
                   "drive the two-bit register and its baselines "
                   "(subcommands: run, kv, trace, ops, modelcheck)");
  flags.add_string("algo", "twobit",
                   "register protocol: twobit | abd-unbounded | abd-bounded "
                   "| attiya | ohram | timeeff (run/trace/kv)");
  flags.add_int("n", 5, "number of processes");
  flags.add_int("t", -1, "crash budget (-1 = max, (n-1)/2)");
  flags.add_int("ops", 20, "operations per process (run) / total (kv)");
  flags.add_int("seed", 1, "random seed");
  flags.add_int("delta", 1000, "base message delay in ticks");
  flags.add_string("delay", "uniform",
                   "const | uniform | expo | flipflop | straggler");
  flags.add_int("think", 500, "max think time between ops (run)");
  flags.add_int("crashes", 0, "processes to crash (run)");
  flags.add_bool("crash-writer", false, "writer is crash-eligible (run)");
  flags.add_bool("invariants", false,
                 "check the paper's lemmas after every event (twobit only)");
  flags.add_double("writer-read-fraction", 0.0,
                   "fraction of writer ops that are reads (run)");
  flags.add_int("writes", 2, "writes to issue (trace)");
  flags.add_int("reads", 1, "reads to issue (trace)");
  flags.add_string("scenario", "write-read",
                   "write | write-read | write-then-read | two-writes-read "
                   "| write-crash (modelcheck)");
  flags.add_string("ablate", "none",
                   "none | line20 | line9 | window (modelcheck)");
  flags.add_int("walks", 0,
                "0 = exhaustive DFS, else sample this many random walks "
                "(modelcheck)");
  flags.add_int("max-nodes", 2'000'000,
                "exploration budget in replayed prefixes (modelcheck)");
  flags.add_int("shards", 4, "register groups in the sharded store (kv)");
  flags.add_int("slots", 16, "register slots per shard (kv)");
  flags.add_int("keys", 256, "distinct keys in the workload (kv)");
  flags.add_double("skew", 0.9, "zipf exponent over keys; 0 = uniform (kv)");
  flags.add_double("read-fraction", 0.9, "fraction of ops that read (kv)");
  flags.add_int("clients", 4, "client threads driving the engine (kv)");
  flags.add_bool("coalesce-writes", true,
                 "collapse queued same-slot writes last-write-wins (kv)");
  flags.add_int("min-batch", 0,
                "batching-window floor per shard worker, group-commit "
                "style; 0 = drain whatever accumulated (kv)");
  flags.add_bool("pin", false, "pin shard workers to cores (kv)");

  if (!flags.parse(argc, argv)) {
    std::cerr << "error: " << flags.error() << "\n\n" << flags.help_text();
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }
  const auto& positional = flags.positional();
  const std::string command = positional.empty() ? "run" : positional[0];
  if (command == "run") return cmd_run(flags);
  if (command == "kv") return cmd_kv(flags);
  if (command == "trace") return cmd_trace(flags);
  if (command == "ops") return cmd_ops(flags);
  if (command == "modelcheck") return cmd_modelcheck(flags);
  std::cerr << "unknown subcommand '" << command
            << "' (expected: run, kv, trace, ops, modelcheck)\n";
  return 2;
}

}  // namespace
}  // namespace tbr

int main(int argc, char** argv) {
  try {
    return tbr::real_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
