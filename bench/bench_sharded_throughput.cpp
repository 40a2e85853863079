// Experiment D11 — sharded multi-register throughput (the scale-out layer).
//
// The mux layer (D10) showed that multiplexing many registers over one
// network keeps per-op cost flat; it also serializes every key behind one
// event loop. This bench measures what the sharded engine buys on a
// read-dominated, zipf-skewed keyspace, two ways:
//
//  * capacity projection (deterministic): per-shard register groups driven
//    in virtual time with finite per-replica CPU (SimNetwork service_time).
//    Aggregate throughput = total ops / busiest shard's clock — what the
//    deployment achieves when each group runs on its own hardware. Same
//    numbers on every host, so CI can track the trajectory.
//  * live engine (wall clock): real shard workers + batching windows under
//    client threads. Scales with the cores the host actually has, so this
//    section is informative, not tracked.
//
// Expectation: >= 2x ops/sec at 4 shards vs 1 shard on the read-dominated
// workload (skew caps it well below the ideal 4x; batching coalescing is
// reported alongside so the two effects stay distinguishable).
#include "bench_common.hpp"

#include "workload/sharded_workload.hpp"

namespace tbr::bench {
namespace {

ShardedWorkloadOptions base_options() {
  ShardedWorkloadOptions opt;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 16;
  opt.keys = 512;
  opt.zipf_s = 0.9;
  opt.read_fraction = 0.9;
  opt.total_ops = quick_mode() ? 1500 : 3000;
  opt.seed = 1;
  return opt;
}

void run_projection_sweep() {
  std::cout << "-- capacity projection (deterministic; per-replica CPU = "
               "200 ticks/frame, delta = 1000) --\n";
  TextTable table({"shards", "ops", "busiest shard (ticks)", "ops/Mtick",
                   "speedup vs 1", "reads coalesced", "writes absorbed",
                   "frames"});
  double base = 0.0;
  double at_four = 0.0;
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    auto opt = base_options();
    opt.shards = shards;
    const auto p = project_sharded_capacity(opt);
    if (shards == 1) base = p.ops_per_mtick;
    if (shards == 4) at_four = p.ops_per_mtick;
    const double read_ops =
        static_cast<double>(p.batch.client_ops - p.batch.protocol_writes -
                            p.batch.absorbed_writes);
    table.add_row(
        {format_count(shards), format_count(p.ops),
         format_count(static_cast<std::uint64_t>(p.busiest_shard_ticks)),
         format_double(p.ops_per_mtick, 0),
         format_double(base > 0 ? p.ops_per_mtick / base : 1.0, 2) + "x",
         format_double(read_ops > 0 ? 100.0 * p.batch.coalesced_reads /
                                          read_ops
                                    : 0.0,
                       1) +
             "%",
         format_count(p.batch.absorbed_writes), format_count(p.frames)});
  }
  std::cout << table.render();
  std::cout << "acceptance: 4-shard speedup = "
            << format_double(base > 0 ? at_four / base : 0.0, 2)
            << "x (criterion: >= 2x)\n\n";
}

void run_batching_ablation() {
  std::cout << "-- batching ablation at 4 shards (projection) --\n";
  TextTable table({"window", "ops/Mtick", "protocol reads", "protocol writes",
                   "frames"});
  for (const bool batched : {false, true}) {
    auto opt = base_options();
    opt.shards = 4;
    if (!batched) {
      opt.max_batch = 1;  // every op its own window: no coalescing at all
      opt.coalesce_writes = false;
    }
    const auto p = project_sharded_capacity(opt);
    table.add_row({batched ? "accumulated (<=256 ops)" : "single op",
                   format_double(p.ops_per_mtick, 0),
                   format_count(p.batch.protocol_reads),
                   format_count(p.batch.protocol_writes),
                   format_count(p.frames)});
  }
  std::cout << table.render() << "\n";
}

void run_min_batch_sweep() {
  // The group-commit trade, measured: a min_batch floor holds each window
  // open until that many ops have arrived, so writes coalesce and reads
  // share rounds harder (throughput up, frames down) while every op waits
  // for its window to fill (latency up). Deterministic capacity-projection
  // mode — same numbers on every host, no wall clock (this repo's CI
  // criterion discipline: the 1-CPU container cannot time threads).
  std::cout << "-- min_batch sweep at 4 shards (projection; "
               "latency vs throughput/frame cost) --\n";
  TextTable table({"min_batch", "ops/Mtick", "mean latency (ticks)",
                   "protocol reads", "writes absorbed", "frames",
                   "frames/op"});
  for (const std::size_t min_batch : {1u, 4u, 16u, 64u}) {
    auto opt = base_options();
    opt.shards = 4;
    opt.min_batch = min_batch;
    // Moderate offered load (ops arrive slower than the saturating
    // default): natural windows are a handful of ops, so the floor is the
    // thing deciding how hard reads share rounds and writes coalesce. At
    // the saturating default the backlog already maxes out every window
    // and the floor only adds wait.
    opt.inter_arrival = 150;
    const auto p = project_sharded_capacity(opt);
    table.add_row({format_count(min_batch), format_double(p.ops_per_mtick, 0),
                   format_double(p.mean_latency_ticks, 0),
                   format_count(p.batch.protocol_reads),
                   format_count(p.batch.absorbed_writes),
                   format_count(p.frames),
                   format_double(p.ops > 0 ? static_cast<double>(p.frames) /
                                                 static_cast<double>(p.ops)
                                           : 0.0,
                                 2)});
  }
  std::cout << table.render()
            << "(informative: the floor is a knob, not a criterion — it "
               "buys per-op frame cost\nwith client latency; pick per "
               "workload)\n\n";
}

void run_engine_sweep() {
  std::cout << "-- live engine (wall clock; scales with host cores — "
               "informative, not tracked) --\n";
  TextTable table({"shards", "ops ok", "ops failed", "wall ms", "ops/sec",
                   "max batch seen"});
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    auto opt = base_options();
    opt.shards = shards;
    opt.total_ops = quick_mode() ? 4000 : 20000;
    opt.client_threads = 4;
    opt.client_pipeline = 128;
    const auto r = run_sharded_workload(opt);
    table.add_row({format_count(shards), format_count(r.ops_completed),
                   format_count(r.ops_failed),
                   format_double(r.wall_seconds * 1e3, 1),
                   format_double(r.ops_per_sec, 0),
                   format_count(r.batch.max_batch_ops)});
  }
  std::cout << table.render() << "\n";
}

void run() {
  print_header(
      "D11: sharded multi-register throughput (read-dominated, zipf skew)",
      "derived experiment — partitioned register groups + per-shard "
      "batching; >= 2x ops/sec at 4 shards vs 1");
  run_projection_sweep();
  run_batching_ablation();
  run_min_batch_sweep();
  run_engine_sweep();
  std::cout
      << "The projection isolates the two wins: partitioning multiplies\n"
      << "replica CPU (speedup bounded by the busiest shard's share of the\n"
      << "zipf mass), and the batching window collapses protocol rounds\n"
      << "(reads issued at one replica in the same window share a round;\n"
      << "queued same-slot writes collapse last-write-wins). Atomicity is\n"
      << "per-register and untouched — tests/sharded_linearizability_test\n"
      << "checks the same engine configuration under the checker.\n";
}

}  // namespace
}  // namespace tbr::bench

int main() {
  tbr::bench::run();
  return 0;
}
