// Experiments T1.L5 / T1.L6 — operation time in Δ units, failure-free.
//
// Paper: write 2Δ | 12Δ | 14Δ | 2Δ; read 4Δ | 12Δ | 18Δ | 4Δ. Reads for the
// quorum-pattern algorithms (abd-unbounded, twobit) are measured two ways:
// steady state, and worst case over read-vs-write phase alignments — the
// paper's read bounds are the worst-case numbers.
#include "bench_common.hpp"

namespace tbr::bench {
namespace {

Tick worst_read_latency(Algorithm algo, std::uint32_t n) {
  Tick worst = 0;
  for (Tick offset = 0; offset <= 2 * kDelta; offset += kDelta / 8) {
    auto group = make_group(algo, n);
    group.client().write_sync(Value::from_int64(1));
    group.settle();
    Tick latency = 0;
    bool done = false;
    const Tick base = group.net().now();
    group.net().schedule_at(base, [&] {
      group.client().write(Value::from_int64(2), [](const OpResult&) {});
    });
    group.net().schedule_at(base + offset, [&] {
      const Tick start = group.net().now();
      group.client().read(n - 1, [&, start](const OpResult&) {
        latency = group.net().now() - start;
        done = true;
      });
    });
    (void)group.net().run();
    if (done) worst = std::max(worst, latency);
  }
  return worst;
}

void run() {
  print_header("Table 1 lines 5-6: operation time (failure-free, delay = D)",
               "write 2D|12D|14D|2D; read 4D|12D|18D|4D (worst case)");

  TextTable table({"algorithm", "write", "read (steady)",
                   "read (worst alignment)", "paper write", "paper read"});
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"2 D", "4 D"}, {"12 D", "12 D"}, {"14 D", "18 D"}, {"2 D", "4 D"}};
  std::size_t row_idx = 0;
  for (const auto algo : all_algorithms()) {
    const auto traffic = measure_op_traffic(algo, 5);
    const Tick worst_read = worst_read_latency(algo, 5);
    table.add_row(
        {algorithm_name(algo),
         format_delta_units(static_cast<double>(traffic.write_latency) /
                            kDelta),
         format_delta_units(static_cast<double>(traffic.read_latency) /
                            kDelta),
         format_delta_units(static_cast<double>(worst_read) / kDelta),
         expected[row_idx].first, expected[row_idx].second});
    ++row_idx;
  }
  std::cout << table.render() << "\n";
  std::cout
      << "the 4D read bounds (abd-unbounded, twobit) are upper bounds: with\n"
      << "every delay equal to D the worst alignment yields 3D for twobit\n"
      << "(the 4D supremum needs heterogeneous delays <= D; reproduced in\n"
      << "tests/twobit_timing_test.cpp, FourDeltaSupremumIsApproachable);\n"
      << "abd-unbounded reads are a fixed two round trips = 4D.\n";
}

}  // namespace
}  // namespace tbr::bench

int main() {
  tbr::bench::run();
  return 0;
}
