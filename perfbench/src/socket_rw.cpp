// socket-rw: the two-bit register over SocketNetwork (real loopback TCP).
//
// n = 3, t = 1, default event loops. A writer at p0 and readers at p1 and
// p2 each keep one operation in flight with zero think time: every
// completion callback (on the process's loop thread) records the op and
// submits the next, so the generator thread only sleeps. The op is
// latency-bound: the epoll loop, write(2), wakeups, the codec and client
// admission sit on its critical path; the event scheduler and the kv
// layers are not involved.
#include <atomic>
#include <memory>
#include <thread>

#include "core/twobit_process.hpp"
#include "history.hpp"
#include "tracer.hpp"
#include "transport/socket_network.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kN = 3;

tbr::SocketNetwork::Options make_options(Tracer* tracer) {
  tbr::SocketNetwork::Options opt;
  opt.cfg.n = kN;
  opt.cfg.t = 1;
  opt.cfg.writer = 0;
  opt.algo = tbr::Algorithm::kTwoBit;
  if (tracer != nullptr) {
    auto same_lane = [](tbr::ProcessId pid) { return pid; };
    opt.process_factory = tracer->wrap(
        [](const tbr::GroupConfig& cfg, tbr::ProcessId pid) {
          return tbr::make_register_process(tbr::Algorithm::kTwoBit, cfg, pid);
        },
        same_lane);
    // The engine's own default rejoiner, wrapped so a rejoined
    // incarnation stays traced.
    opt.recover_factory = tracer->wrap(
        [](const tbr::GroupConfig& cfg, tbr::ProcessId pid) {
          tbr::TwoBitOptions o;
          o.recover_via_catchup = true;
          return std::make_unique<tbr::TwoBitProcess>(cfg, pid, o);
        },
        same_lane);
  }
  return opt;
}

/// One sequential client bound to one process.
struct Caller {
  tbr::ProcessId proc = 0;
  std::uint64_t seed = 0;
  std::int64_t t0 = 0;
  std::uint64_t ops = 0;
  std::int64_t value = 0;  ///< the writer's current payload
  std::uint64_t failed = 0;
  ChunkedLog<ClientOp> log;
};

class ClosedLoop {
 public:
  ClosedLoop(tbr::SocketNetwork& net, bool traced)
      : client_(net.client()), traced_(traced) {}

  void start(Caller& c) {
    active_.fetch_add(1, std::memory_order_relaxed);
    submit(c);
  }
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool idle() const { return active_.load(std::memory_order_acquire) == 0; }

 private:
  static std::uint64_t op_id(const Caller& c) {
    return (static_cast<std::uint64_t>(c.proc) << 40) | c.ops;
  }

  void submit(Caller& c) {
    ++c.ops;
    c.t0 = now_ns();
    auto cb = [this, &c](const tbr::OpResult& r) { done(c, r); };
    if (c.proc == 0) {
      c.value = static_cast<std::int64_t>(mix64(c.seed ^ c.ops));
      client_.write(tbr::Value::from_int64(c.value), cb);
    } else {
      client_.read(c.proc, cb);
    }
    if (traced_) Tracer::submitted(op_id(c), c.t0, now_ns());
  }

  void done(Caller& c, const tbr::OpResult& r) {
    const std::int64_t t1 = now_ns();
    if (traced_) Tracer::completed(op_id(c), c.t0, t1);
    ClientOp& op = c.log.push();
    op.t0 = c.t0;
    op.t1 = t1;
    op.proc = static_cast<std::uint16_t>(c.proc);
    if (c.proc == 0) {
      op.kind = ClientOp::kWrite;
      op.index = static_cast<std::int32_t>(c.ops);
      op.value = c.value;
    } else {
      op.kind = ClientOp::kRead;
      op.index = static_cast<std::int32_t>(r.version);
      if (r.value.bytes().empty()) {
        op.flags = ClientOp::kInitial;
      } else {
        op.value = r.value.to_int64();
      }
    }
    if (!r.status.ok()) ++c.failed;
    if (stop_.load(std::memory_order_relaxed) || !r.status.ok()) {
      active_.fetch_sub(1, std::memory_order_release);
      return;
    }
    submit(c);
  }

  tbr::RegisterClient& client_;
  bool traced_;
  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
};

struct RunOutput {
  std::vector<Window> windows;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  tbr::MessageStats stats;
  tbr::SocketNetwork::BackpressureStats backpressure;
  std::size_t pool_slots = 0;
  std::uint64_t local_memory_peak = 0;  ///< traced runs only
  std::uint64_t history_peak = 0;       ///< traced runs only
  std::string error;
};

/// One closed-loop run of `seconds` (warm-up included), history checked.
RunOutput measure(std::uint64_t seed, double seconds, Tracer* tracer) {
  RunOutput out;
  std::vector<std::unique_ptr<Caller>> callers;
  for (tbr::ProcessId p = 0; p < kN; ++p) {
    auto c = std::make_unique<Caller>();
    c->proc = p;
    c->seed = mix64(seed + p);
    c->log.reserve(static_cast<std::size_t>(seconds * 40000.0));
    callers.push_back(std::move(c));
  }
  if (tracer != nullptr) tracer->bind_main_thread();

  tbr::SocketNetwork net(make_options(tracer));
  net.start();
  ClosedLoop loop(net, tracer != nullptr);
  const std::int64_t t_begin = now_ns();
  const auto from = t_begin + static_cast<std::int64_t>(kWarmupS * 1e9);
  Tracer::record_from(from);
  for (auto& c : callers) loop.start(*c);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const std::int64_t t_end = now_ns();
  loop.request_stop();
  const std::int64_t deadline = now_ns() + 10'000'000'000LL;
  while (!loop.idle() && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!loop.idle()) out.error = "socket-rw: clients did not drain";
  out.pool_slots = net.client().pool().capacity();
  net.stop();
  out.stats = net.stats_snapshot();
  out.backpressure = net.backpressure_snapshot();
  if (tracer != nullptr) {
    out.local_memory_peak = tracer->max_local_memory();
    out.history_peak = tracer->max_history_bytes();
  }

  std::vector<const ChunkedLog<ClientOp>*> logs;
  for (auto& c : callers) {
    logs.push_back(&c->log);
    out.ops += c->log.size();
    out.failed += c->failed;
  }
  out.windows = windows_of(logs, from, t_end, kWindowS);
  if (out.error.empty()) {
    const std::string err = check_history(logs, 1, /*kv_writes=*/false);
    if (!err.empty()) out.error = "socket-rw atomicity: " + err;
  }
  if (out.error.empty() && out.stats.max_control_bits_per_msg() != 2) {
    out.error = "socket-rw: two-bit frames carried " +
                std::to_string(out.stats.max_control_bits_per_msg()) +
                " control bits";
  }
  return out;
}

/// construct + start + first write completed, in seconds (0 on failure).
double setup_once(std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  tbr::SocketNetwork net(make_options(nullptr));
  net.start();
  const tbr::OpResult r = net.client().write_sync(
      tbr::Value::from_int64(static_cast<std::int64_t>(seed)));
  const std::int64_t t1 = now_ns();
  return r.status.ok() ? static_cast<double>(t1 - t0) / 1e9 : 0.0;
}

}  // namespace

Report run_socket_rw(const Args& args) {
  Report report;
  if (!args.trace) {
    const Pooled run = pooled(
        args.seconds,
        [&](int k, double seconds) {
          return measure(mix64(args.seed) + k, seconds, nullptr);
        },
        [&](int k, int i) {
          return setup_once(mix64(args.seed) + k * kSetupsPerSubRun + i);
        });
    if (!run.error.empty()) report.fail(run.error);
    report.attempted = run.ops;
    report.failed = run.failed;
    note_samples("socket-rw", run.summary);
    report.add("setup_s", run.setup_s, "s");
    report.add("ops_per_s", run.summary.ops_per_s, "1/s");
    report.add("write_p50_us", run.summary.write_p50_us, "us");
    report.add("read_p50_us", run.summary.read_p50_us, "us");
    return report;
  }

  // Traced: an untraced half for the overhead baseline, then a traced half.
  const double half = args.seconds / 2.0;
  RunOutput plain = measure(args.seed, half, nullptr);
  Tracer tracer(kN, kN);
  RunOutput traced = measure(args.seed, half, &tracer);
  for (const RunOutput* r : {&plain, &traced}) {
    if (!r->error.empty()) report.fail(r->error);
  }
  report.attempted = plain.ops + traced.ops;
  report.failed = plain.failed + traced.failed;

  const LaneTotals t = tracer.merged();
  add_split_metrics(report, t, Admission::kLoopThread);
  report.add("client.pool_slots", static_cast<double>(traced.pool_slots),
             "count");
  report.add("transport.send_ns", ratio(t.send_self_ns, t.sends), "ns");
  report.add("transport.hop_ns", tracer.hop_mean_ns(), "ns");
  report.add("transport.frames_per_op",
             ratio(traced.stats.total_sent(), traced.ops), "count");
  // Each frame travels behind a 4-byte length prefix (FrameBuffer).
  report.add("transport.bytes_per_op",
             ratio(t.encoded_bytes + 4 * t.encodes, t.split_ops), "bytes");
  report.add("transport.park_events",
             static_cast<double>(traced.backpressure.park_events), "count");
  add_frame_metrics(report, t);
  report.add("codec.control_bits_max",
             static_cast<double>(traced.stats.max_control_bits_per_msg()),
             "bits");
  report.add("protocol.local_memory_peak_bytes",
             static_cast<double>(traced.local_memory_peak), "bytes");
  report.add("history.retained_bytes_peak",
             static_cast<double>(traced.history_peak), "bytes");
  const WindowSummary untraced = summarize(plain.windows);
  const WindowSummary with_spans = summarize(traced.windows);
  report.add("write_p99_us", untraced.write_p99_us, "us");
  report.add("read_p99_us", untraced.read_p99_us, "us");
  report.add("trace.write_p50_overhead_us",
             with_spans.write_p50_us - untraced.write_p50_us, "us");
  report.add("trace.read_p50_overhead_us",
             with_spans.read_p50_us - untraced.read_p50_us, "us");
  if (!args.trace_dir.empty()) {
    tracer.write_trace(args.trace_dir + "/socket-rw-" +
                           std::to_string(args.seed) + ".jsonl",
                       false);
  }
  return report;
}

}  // namespace perfbench
