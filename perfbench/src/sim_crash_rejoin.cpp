// sim-crash-rejoin: SimRegisterGroup, n = 5, t = 2, two-bit with bounded
// history (the process_factory / recover_factory pair of
// tests/twobit_recovery_test.cpp), the engine's default constant channel
// delay Δ = 1000 ticks.
//
// A writer at p0 and readers at p1..p4 run closed loops for a fixed op
// count on one thread. Replica 4 crashes once per 200Δ period (at a
// seeded offset) and rejoins 50Δ later through recover_at; its read
// submitted while down is refused, and it retries once it has rejoined.
// The only deterministic workload: every count and virtual-time metric
// repeats exactly for a seed, so the episode is run repeatedly for the
// wall-clock window and each repetition must reproduce the first one's
// digest. It loads the event scheduler, the protocol handlers and history
// GC / checkpoint / catch-up; threads, sockets and the codec are bypassed.
//
// Two deliberate departures from "crash at a fixed instant under random
// delays", both recorded in perfbench/README.md (Known limits):
//  * The crash lands when replica 4's in-flight read completes, not
//    mid-read: the simulator client has no crash hook, so a read cut off
//    by a crash would never complete and would pin that replica's client
//    chain for the rest of the run.
//  * Delays are constant. Under exponential delays (mean Δ, cap 20Δ) this
//    schedule trips protocol defects: faithful processes abort at
//    twobit_process.cpp:274, and bounded-history ones either fail the
//    r_sync invariant at twobit_process.cpp:632 or lose liveness (a
//    rejoiner or a live channel stops catching up and the writer's quorum
//    stalls).
#include <array>
#include <memory>

#include "core/twobit_codec.hpp"
#include "core/twobit_process.hpp"
#include "history.hpp"
#include "tracer.hpp"
#include "workload/sim_register_group.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kN = 5;
constexpr std::uint32_t kT = 2;
constexpr tbr::Tick kDelta = 1000;
constexpr std::uint64_t kOpsPerEpisode = 20000;
constexpr std::uint64_t kDrainWrites = 1000;
constexpr tbr::ProcessId kRejoiner = 4;
constexpr tbr::Tick kCrashPeriod = 200 * kDelta;
constexpr tbr::Tick kDownTime = 50 * kDelta;
/// Completed ops per wall-clock window (a few ms of simulator time).
constexpr std::uint64_t kWindowOps = 1000;
/// Set-ups timed before each episode (about 20 us each).
constexpr std::uint64_t kSetupsPerEpisode = 4;

std::unique_ptr<tbr::RegisterProcessBase> bounded_twobit(
    const tbr::GroupConfig& cfg, tbr::ProcessId pid, bool rejoiner) {
  tbr::TwoBitOptions o;
  o.bounded_history = true;
  o.ack_interval = 8;
  o.recover_via_catchup = rejoiner;
  return std::make_unique<tbr::TwoBitProcess>(cfg, pid, o);
}

tbr::SimRegisterGroup make_group(std::uint64_t seed, Tracer* tracer) {
  tbr::SimRegisterGroup::Options opt;
  opt.cfg.n = kN;
  opt.cfg.t = kT;
  opt.cfg.writer = 0;
  opt.algo = tbr::Algorithm::kTwoBit;
  opt.seed = seed;
  Tracer::Factory start = [](const tbr::GroupConfig& cfg, tbr::ProcessId pid) {
    return bounded_twobit(cfg, pid, false);
  };
  Tracer::Factory rejoin = [](const tbr::GroupConfig& cfg, tbr::ProcessId pid) {
    return bounded_twobit(cfg, pid, true);
  };
  if (tracer != nullptr) {
    auto one_lane = [](tbr::ProcessId) { return 0u; };
    start = tracer->wrap(std::move(start), one_lane);
    rejoin = tracer->wrap(std::move(rejoin), one_lane);
  }
  opt.process_factory = std::move(start);
  opt.recover_factory = std::move(rejoin);
  return tbr::SimRegisterGroup(std::move(opt));
}

/// Everything one episode measures. The first block is deterministic.
struct Episode {
  std::vector<double> write_delta, read_delta, recovery_delta;
  std::uint64_t ops = 0, writes = 0, reads = 0, refused = 0, failed = 0;
  std::uint64_t events = 0, work_units = 0, rejoins = 0;
  tbr::MessageStats stats;
  std::uint64_t history_peak = 0, memory_peak = 0, pool_slots = 0;
  std::uint64_t digest = 0;
  bool drained = false;
  std::uint64_t stalled = 0;  ///< ops still in flight once the run drained
  // Wall clock: one Window per kWindowOps completed ops (a trailing
  // partial window is dropped).
  std::vector<WindowFigures> windows;
  std::int64_t wall_ns = 0;
};

class Runner {
 public:
  Runner(std::uint64_t seed, Tracer* tracer, ChunkedLog<ClientOp>& log)
      : seed_(seed),
        tracer_(tracer),
        log_(log),
        jitter_(seed, 0x5EED),
        group_(make_group(seed, tracer)),
        client_(group_.client()) {}

  Episode run() {
    for (tbr::ProcessId p = 0; p < kN; ++p) {
      callers_[p].proc = p;
      callers_[p].value_seed = mix64(seed_ + p);
    }
    auto& net = group_.net();
    schedule_crash(0);
    const std::int64_t t0 = now_ns();
    window_start_ = t0;
    for (auto& c : callers_) submit(c);
    const bool drained = net.run();
    ep_.wall_ns = now_ns() - t0;
    ep_.drained = drained;
    ep_.stalled = issued_ - ep_.ops - ep_.failed;
    sample_memory();
    ep_.events = net.events_executed();
    ep_.work_units = net.scheduler_work_units();
    ep_.stats = net.stats();
    ep_.rejoins = net.recover_count();
    ep_.pool_slots = client_.pool().capacity();
    return std::move(ep_);
  }

 private:
  struct Caller {
    tbr::ProcessId proc = 0;
    std::uint64_t value_seed = 0;
    std::uint64_t writes = 0;
    std::int64_t value = 0;
    std::uint64_t t0 = 0;          ///< history stamp at submit
    std::int64_t wall0 = 0;
    bool inflight = false;         ///< submitted and not yet completed
  };

  void submit(Caller& c) {
    if (issued_ >= kOpsPerEpisode && !writer_drains(c)) return;
    ++issued_;
    c.inflight = true;
    c.t0 = ++stamp_;
    c.wall0 = now_ns();
    auto cb = [this, &c](const tbr::OpResult& r) { done(c, r); };
    if (c.proc == 0) {
      ++c.writes;
      c.value = static_cast<std::int64_t>(mix64(c.value_seed ^ c.writes));
      client_.write(tbr::Value::from_int64(c.value), cb);
    } else {
      client_.read(c.proc, cb);
    }
    if (tracer_ != nullptr) {
      Tracer::submitted(c.t0, c.wall0, now_ns());
    }
  }

  void done(Caller& c, const tbr::OpResult& r) {
    const std::int64_t wall1 = now_ns();
    c.inflight = false;
    if (c.proc == kRejoiner && r.status.code() == tbr::StatusCode::kCrashed) {
      ++ep_.refused;  // submitted while down: retried after the rejoin
      --issued_;
      return;
    }
    if (tracer_ != nullptr) Tracer::completed(c.t0, c.wall0, wall1);
    if (!r.status.ok()) {
      ++ep_.failed;
      return;
    }
    ++ep_.ops;
    const double delta =
        static_cast<double>(r.latency) / static_cast<double>(kDelta);
    const double us = static_cast<double>(wall1 - c.wall0) / 1e3;
    ClientOp& op = log_.push();
    op.t0 = static_cast<std::int64_t>(c.t0);
    op.t1 = static_cast<std::int64_t>(++stamp_);
    op.proc = static_cast<std::uint16_t>(c.proc);
    if (c.proc == 0) {
      ++ep_.writes;
      op.kind = ClientOp::kWrite;
      op.index = static_cast<std::int32_t>(c.writes);
      op.value = c.value;
      ep_.write_delta.push_back(delta);
      window_.write_us.push_back(us);
    } else {
      ++ep_.reads;
      op.kind = ClientOp::kRead;
      op.index = static_cast<std::int32_t>(r.version);
      if (r.value.bytes().empty()) {
        op.flags = ClientOp::kInitial;
      } else {
        op.value = r.value.to_int64();
      }
      ep_.read_delta.push_back(delta);
      window_.read_us.push_back(us);
    }
    if (ep_.ops % kWindowOps == 0) {
      window_.ops_per_s = static_cast<double>(kWindowOps) /
                          (static_cast<double>(wall1 - window_start_) / 1e9);
      ep_.windows.push_back(figures_of(window_));
      window_.write_us.clear();
      window_.read_us.clear();
      window_start_ = wall1;
    }
    if (c.proc == kRejoiner && recovered_at_ >= 0) {
      ep_.recovery_delta.push_back(
          static_cast<double>(group_.net().now() - recovered_at_) /
          static_cast<double>(kDelta));
      recovered_at_ = -1;
    }
    if (c.proc == kRejoiner && crash_due_) {
      // Crash in an event of its own: this callback runs inside the
      // replica's own handler, which must not be cut off mid-call.
      crash_due_ = false;
      group_.net().schedule_at(group_.net().now(), [this] { crash_now(); });
      return;
    }
    submit(c);
  }

  /// Once the op budget is spent, the writer keeps writing (at most
  /// kDrainWrites more) while a read is still in flight: a rejoined
  /// replica's read can depend on fresh WRITE traffic (README, Known
  /// limits), so a budget that stops the writer first could strand it.
  bool writer_drains(const Caller& c) {
    if (c.proc != 0 || issued_ >= kOpsPerEpisode + kDrainWrites) return false;
    for (const Caller& r : callers_) {
      if (r.proc != 0 && r.inflight) return true;
    }
    return false;
  }

  /// Arm the crash of period `k` at a seeded offset inside the period.
  void schedule_crash(std::uint64_t k) {
    const tbr::Tick at = static_cast<tbr::Tick>(k) * kCrashPeriod +
                         static_cast<tbr::Tick>(jitter_.below(kDownTime));
    group_.net().schedule_at(std::max(at, group_.net().now()), [this] {
      crash_due_ = issued_ < kOpsPerEpisode;
    });
  }

  void crash_now() {
    auto& net = group_.net();
    Caller& c = callers_[kRejoiner];
    sample_memory();
    group_.crash(kRejoiner);
    submit(c);  // refused: the replica is down
    const tbr::Tick back = net.now() + kDownTime;
    group_.recover_at(kRejoiner, back);
    // Scheduled after recover_at at the same instant, so it runs after it.
    net.schedule_at(back, [this, &c] {
      recovered_at_ = group_.net().now();
      submit(c);
      schedule_crash(static_cast<std::uint64_t>(recovered_at_ / kCrashPeriod) +
                     1);
    });
  }

  void sample_memory() {
    for (tbr::ProcessId p = 0; p < kN; ++p) {
      if (group_.net().crashed(p)) continue;
      const auto& proc = group_.process(p);
      ep_.memory_peak = std::max(ep_.memory_peak, proc.local_memory_bytes());
      if (const tbr::TwoBitProcess* tb = as_twobit(proc)) {
        ep_.history_peak =
            std::max(ep_.history_peak, tb->memory_footprint().history_bytes);
      }
    }
  }

  std::uint64_t seed_;
  Tracer* tracer_;
  ChunkedLog<ClientOp>& log_;
  Stream jitter_;
  tbr::SimRegisterGroup group_;
  tbr::RegisterClient& client_;
  std::array<Caller, kN> callers_{};
  Episode ep_;
  Window window_;
  std::int64_t window_start_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t stamp_ = 0;
  bool crash_due_ = false;
  tbr::Tick recovered_at_ = -1;
};

std::uint64_t digest_of(const ChunkedLog<ClientOp>& log, const Episode& ep) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  for (std::size_t i = 0; i < log.size(); ++i) {
    const ClientOp& op = log[i];
    mix(static_cast<std::uint64_t>(op.t0));
    mix(static_cast<std::uint64_t>(op.t1));
    mix(static_cast<std::uint64_t>(op.value));
    mix(static_cast<std::uint64_t>(op.index) ^ (std::uint64_t{op.proc} << 32));
  }
  for (double d : ep.write_delta) mix(static_cast<std::uint64_t>(d * kDelta));
  for (double d : ep.read_delta) mix(static_cast<std::uint64_t>(d * kDelta));
  mix(ep.events);
  mix(ep.work_units);
  mix(ep.stats.total_sent());
  mix(ep.refused);
  mix(ep.history_peak);
  return h;
}

struct RunOutput {
  Episode first;  ///< deterministic figures come from here
  std::vector<WindowFigures> windows;  ///< of all episodes
  std::vector<double> setups;
  std::uint64_t episodes = 0, ops = 0, failed = 0, events = 0;
  std::int64_t wall_ns = 0;
  std::string error;
};

/// construct + first write completed, in seconds (0 on failure).
double setup_once(std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  tbr::SimRegisterGroup group = make_group(seed, nullptr);
  const tbr::OpResult r = group.client().write_sync(
      tbr::Value::from_int64(static_cast<std::int64_t>(seed)));
  const std::int64_t t1 = now_ns();
  return r.status.ok() ? static_cast<double>(t1 - t0) / 1e9 : 0.0;
}

/// Repeats the episode for `seconds` of wall time (at least once); checks
/// the first episode's history and every repetition's digest against it.
/// kSetupsPerEpisode set-ups are timed before each episode.
RunOutput measure(std::uint64_t seed, double seconds, Tracer* tracer) {
  RunOutput out;
  ChunkedLog<ClientOp> log;
  log.reserve(kOpsPerEpisode);
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t first_digest = 0;
  if (tracer != nullptr) tracer->bind_main_thread();
  do {
    for (std::uint64_t i = 0; i < kSetupsPerEpisode; ++i) {
      out.setups.push_back(
          setup_once(seed + out.episodes * kSetupsPerEpisode + i));
      if (out.setups.back() <= 0) out.error = "sim-crash-rejoin: set-up failed";
    }
    log.clear();
    Runner runner(seed, tracer, log);
    Episode ep = runner.run();
    ep.digest = digest_of(log, ep);
    ++out.episodes;
    out.ops += ep.ops;
    out.failed += ep.failed;
    out.events += ep.events;
    out.wall_ns += ep.wall_ns;
    out.windows.insert(out.windows.end(), ep.windows.begin(),
                       ep.windows.end());
    if (out.episodes == 1) {
      first_digest = ep.digest;
      const std::string err = check_history({&log}, 1, /*kv_writes=*/false);
      if (!err.empty()) out.error = "sim-crash-rejoin atomicity: " + err;
      if (ep.rejoins == 0) out.error = "sim-crash-rejoin: no rejoin happened";
      if (!ep.drained) out.error = "sim-crash-rejoin: episode did not drain";
      if (ep.stalled > 0) {
        out.error = "sim-crash-rejoin: " + std::to_string(ep.stalled) +
                    " op(s) never completed (liveness lost)";
      }
      out.first = std::move(ep);
    } else if (ep.digest != first_digest && out.error.empty()) {
      out.error = "sim-crash-rejoin: episode not reproducible for its seed";
    }
  } while (now_ns() < until && out.error.empty());
  return out;
}

}  // namespace

Report run_sim_crash_rejoin(const Args& args) {
  Report report;
  if (!args.trace) {
    const RunOutput run = measure(args.seed, args.seconds, nullptr);
    if (!run.error.empty()) report.fail(run.error);
    report.attempted = run.ops + run.failed;
    report.failed = run.failed;
    const WindowSummary s = summarize(run.windows);
    note_samples("sim-crash-rejoin", s);
    report.add("setup_s", median(run.setups), "s");
    report.add("ops_per_s", s.ops_per_s, "1/s");
    report.add("write_p50_us", s.write_p50_us, "us");
    report.add("read_p50_us", s.read_p50_us, "us");
    return report;
  }

  const double half = args.seconds / 2.0;
  RunOutput plain = measure(args.seed, half, nullptr);
  Tracer tracer(1, 0);
  RunOutput traced = measure(args.seed, half, &tracer);
  for (const RunOutput* r : {&plain, &traced}) {
    if (!r->error.empty()) report.fail(r->error);
  }
  report.attempted = plain.ops + plain.failed + traced.ops + traced.failed;
  report.failed = plain.failed + traced.failed;

  // Deterministic figures: one untraced episode (identical in all).
  Episode& ep = plain.first;
  report.add("write_p50_delta", quantile(ep.write_delta, 0.5), "delta");
  report.add("write_p99_delta", quantile(ep.write_delta, 0.99), "delta");
  report.add("read_p50_delta", quantile(ep.read_delta, 0.5), "delta");
  report.add("read_p99_delta", quantile(ep.read_delta, 0.99), "delta");
  report.add("recovery_delta", median(ep.recovery_delta), "delta");
  report.add("client.refused_frac", ratio(ep.refused, ep.ops + ep.refused),
             "ratio");
  report.add("sim.events_per_op", ratio(ep.events, ep.ops), "count");
  report.add("sim.work_units_per_event", ratio(ep.work_units, ep.events),
             "count");
  using tbr::TwoBitType;
  auto sent = [&ep](TwoBitType type) {
    return ep.stats.sent_of_type(static_cast<std::uint8_t>(type));
  };
  report.add("protocol.write_frames_per_op",
             ratio(sent(TwoBitType::kWrite0) + sent(TwoBitType::kWrite1),
                   ep.writes),
             "count");
  report.add("protocol.read_frames_per_op",
             ratio(sent(TwoBitType::kRead) + sent(TwoBitType::kProceed),
                   ep.reads),
             "count");
  report.add("protocol.local_memory_peak_bytes",
             static_cast<double>(ep.memory_peak), "bytes");
  report.add("codec.control_bits_max",
             static_cast<double>(ep.stats.max_control_bits_per_msg()), "bits");
  report.add("history.retained_bytes_peak", static_cast<double>(ep.history_peak),
             "bytes");
  report.add("history.catchup_frames_per_rejoin",
             ratio(sent(TwoBitType::kCatchUp) + sent(TwoBitType::kCheckpoint),
                   ep.rejoins),
             "count");

  // Wall-clock layer split from the traced episodes.
  const LaneTotals t = tracer.merged();
  add_split_metrics(report, t, Admission::kInline);
  report.add("protocol.handler_ns", ratio(t.handler_self_ns, t.handlers),
             "ns");
  // Simulator self time: the run loop minus the protocol/client work done
  // inside delivered handlers, plus the sends they made (a send is a
  // scheduler insert here).
  report.add("sim.run_ns_per_event",
             ratio(traced.wall_ns - t.outer_handler_ns + t.send_ns,
                   traced.events),
             "ns");
  report.add("client.pool_slots", static_cast<double>(ep.pool_slots), "count");
  const WindowSummary untraced = summarize(plain.windows);
  const WindowSummary with_spans = summarize(traced.windows);
  report.add("write_p99_us", untraced.write_p99_us, "us");
  report.add("read_p99_us", untraced.read_p99_us, "us");
  report.add("trace.write_p50_overhead_us",
             with_spans.write_p50_us - untraced.write_p50_us, "us");
  report.add("trace.read_p50_overhead_us",
             with_spans.read_p50_us - untraced.read_p50_us, "us");
  if (!args.trace_dir.empty()) {
    tracer.write_trace(args.trace_dir + "/sim-crash-rejoin-" +
                           std::to_string(args.seed) + ".jsonl",
                       false);
  }
  return report;
}

}  // namespace perfbench
