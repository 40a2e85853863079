// perfbench: the repository benchmark binary.
//
//   perfbench --workload <socket-rw|kv-zipf|sim-crash-rejoin> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end list below, with --trace 1
// the per-layer list; every workload prints every name of its list, and a
// layer a workload bypasses reads 0. Exit code 0 only for a correct run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in sync with BENCHMARK.json (end_to_end / per_layer) and README.md.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"write_p50_us", "us"},   {"read_p50_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"client.submit_ns", "ns"},
    {"client.complete_ns", "ns"},
    {"client.pool_slots", "count"},
    {"client.refused_frac", "ratio"},
    {"transport.admit_ns", "ns"},
    {"transport.send_ns", "ns"},
    {"transport.hop_ns", "ns"},
    {"transport.frames_per_op", "count"},
    {"transport.bytes_per_op", "bytes"},
    {"transport.park_events", "count"},
    {"codec.encode_ns", "ns"},
    {"codec.decode_ns", "ns"},
    {"codec.bytes_per_frame", "bytes"},
    {"codec.control_bits_max", "bits"},
    {"protocol.handler_ns", "ns"},
    {"protocol.round_ns", "ns"},
    {"protocol.write_frames_per_op", "count"},
    {"protocol.read_frames_per_op", "count"},
    {"protocol.local_memory_peak_bytes", "bytes"},
    {"sim.run_ns_per_event", "ns"},
    {"sim.events_per_op", "count"},
    {"sim.work_units_per_event", "count"},
    {"kvstore.queue_ns", "ns"},
    {"kvstore.round_ns", "ns"},
    {"kvstore.batch_ops", "count"},
    {"kvstore.coalesced_read_frac", "ratio"},
    {"kvstore.absorbed_write_frac", "ratio"},
    {"kvstore.frames_per_op", "count"},
    {"kvstore.shard_skew", "ratio"},
    {"history.retained_bytes_peak", "bytes"},
    {"history.catchup_frames_per_rejoin", "count"},
    {"write_p50_delta", "delta"},
    {"write_p99_delta", "delta"},
    {"read_p50_delta", "delta"},
    {"read_p99_delta", "delta"},
    {"recovery_delta", "delta"},
    {"write_p99_us", "us"},
    {"read_p99_us", "us"},
    {"trace.op_mean_ns", "ns"},
    {"trace.split_coverage", "ratio"},
    {"trace.write_p50_overhead_us", "us"},
    {"trace.read_p50_overhead_us", "us"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<socket-rw|kv-zipf|sim-crash-rejoin> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds >= 1;
}

/// Orders `report` by the metric list, filling bypassed layers with 0;
/// an end-to-end metric a workload failed to produce is an error.
bool normalize(Report& report, bool trace) {
  std::map<std::string, Metric> got;
  for (auto& m : report.metrics) got[m.name] = m;
  std::vector<Metric> out;
  const MetricDef* defs = trace ? kPerLayer : kEndToEnd;
  const std::size_t count = trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < count; ++i) {
    auto it = got.find(defs[i].name);
    if (it == got.end()) {
      if (!trace) {
        report.fail(std::string("missing metric ") + defs[i].name);
        return false;
      }
      out.push_back({defs[i].name, 0.0, defs[i].unit});
      continue;
    }
    if (it->second.unit != defs[i].unit) {
      report.fail(std::string("unit mismatch for ") + defs[i].name);
      return false;
    }
    out.push_back(it->second);
    got.erase(it);
  }
  if (!got.empty()) {
    report.fail("metric outside the list: " + got.begin()->first);
    return false;
  }
  report.metrics = std::move(out);
  return true;
}

void print(const Report& report) {
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  if (args.trace && !args.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    if (ec) args.trace_dir.clear();
  }
  Report report;
  try {
    if (args.workload == "socket-rw") {
      report = run_socket_rw(args);
    } else if (args.workload == "kv-zipf") {
      report = run_kv_zipf(args);
    } else if (args.workload == "sim-crash-rejoin") {
      report = run_sim_crash_rejoin(args);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  normalize(report, args.trace);
  if (report.attempted == 0) report.fail("no operation attempted");
  if (!report.correct) {
    std::fprintf(stderr, "perfbench: incorrect run: %s\n", report.error.c_str());
  }
  print(report);
  return report.correct ? 0 : 1;
}
