// kv-zipf: ShardedKvStore, 2 shards x n = 3, t = 1, 4096 slots per shard.
//
// 4096 keys, Zipf s = 0.99 over key ranks, 90% get / 10% put, 8-byte
// values. 64 closed-loop callers keep 64 ops in flight: the generator
// thread issues the first op of each, and every completion (on a shard
// worker) records the op and issues that caller's next one. Three threads
// in all. Callers are shard-affine (caller c draws keys of shard c % 2,
// Zipf by global rank): with callers free to cross shards, each
// completion woke the other worker, and how the two workers' batches
// happened to interleave made a run's p50 latency bimodal (about 50 or
// about 95 us at the same throughput). The load is throughput-bound, so the router, the mailbox
// batching window, MuxProcess::start_batch coalescing and each shard's
// simulator carry it; the TCP transport is not involved. Puts beside
// skewed gets make a batching change that helps reads but costs writes
// show up.
#include <atomic>
#include <memory>
#include <thread>

#include "history.hpp"
#include "kvstore/sharded_store.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kN = 3;
constexpr std::uint32_t kSlots = 4096;
constexpr std::uint32_t kKeys = 4096;
constexpr std::uint32_t kCallers = 64;
constexpr double kZipfS = 0.99;
constexpr double kPutFrac = 0.10;

tbr::ShardedKvStore::Options make_options(std::uint64_t seed, Tracer* tracer) {
  tbr::ShardedKvStore::Options opt;
  opt.shards = kShards;
  opt.n = kN;
  opt.t = 1;
  opt.slots_per_shard = kSlots;
  opt.seed = seed;
  if (tracer != nullptr) {
    // MuxProcess builds its slots in order, shard by shard and node by
    // node, so the build count tells which shard's worker will run them.
    auto built = std::make_shared<std::uint32_t>(0);
    opt.register_factory = tracer->wrap(
        [](const tbr::GroupConfig& cfg, tbr::ProcessId pid) {
          return tbr::make_register_process(tbr::Algorithm::kTwoBit, cfg, pid);
        },
        [built](tbr::ProcessId) { return (*built)++ / (kN * kSlots); });
  }
  return opt;
}

/// The seeded key space: rank -> key name (a seeded permutation) -> the
/// register (shard * kSlots + slot) the router places it in, plus one Zipf
/// CDF per shard over that shard's keys (weights by global rank).
struct KeySpace {
  std::vector<std::string> names;
  std::vector<std::uint32_t> reg;
  std::vector<std::vector<std::uint32_t>> shard_keys;  ///< ranks, ascending
  std::vector<std::vector<double>> shard_cdf;

  KeySpace(std::uint64_t seed, const tbr::ShardRouter& router)
      : shard_keys(kShards), shard_cdf(kShards) {
    std::vector<std::uint32_t> perm(kKeys);
    for (std::uint32_t i = 0; i < kKeys; ++i) perm[i] = i;
    Stream s(seed, 0xC0FFEE);
    for (std::uint32_t i = kKeys - 1; i > 0; --i) {
      std::swap(perm[i], perm[s.below(i + 1)]);
    }
    std::vector<double> total(kShards, 0.0);
    for (std::uint32_t r = 0; r < kKeys; ++r) {
      names.push_back("user:" + std::to_string(perm[r]));
      const auto at = router.place(names.back());
      reg.push_back(at.shard * kSlots + at.slot);
      total[at.shard] += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      shard_keys[at.shard].push_back(r);
      shard_cdf[at.shard].push_back(total[at.shard]);
    }
    for (std::uint32_t sh = 0; sh < kShards; ++sh) {
      for (double& c : shard_cdf[sh]) c /= total[sh];
    }
  }
  /// A key of `shard`, Zipf-distributed by global rank.
  std::uint32_t sample(std::uint32_t shard, double u) const {
    const auto& cdf = shard_cdf[shard];
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto i = std::min<std::ptrdiff_t>(
        it - cdf.begin(), static_cast<std::ptrdiff_t>(cdf.size()) - 1);
    return shard_keys[shard][static_cast<std::size_t>(i)];
  }
};

struct Caller {
  std::uint16_t id = 0;
  Stream stream{0, 0};
  std::int64_t t0 = 0;
  std::uint64_t ops = 0;
  std::uint32_t key = 0;
  bool put = false;
  std::int64_t value = 0;
  std::uint64_t failed = 0;
};

class ClosedLoop {
 public:
  ClosedLoop(tbr::ShardedKvStore& store, const KeySpace& keys,
         std::vector<ChunkedLog<ClientOp>>& logs, bool traced)
      : client_(store.client()), keys_(keys), logs_(logs), traced_(traced) {}

  void start(Caller& c) {
    active_.fetch_add(1, std::memory_order_relaxed);
    submit(c);
  }
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool idle() const { return active_.load(std::memory_order_acquire) == 0; }

 private:
  static std::uint64_t op_id(const Caller& c) {
    return (static_cast<std::uint64_t>(c.id) << 40) | c.ops;
  }

  void submit(Caller& c) {
    ++c.ops;
    c.put = c.stream.u01() < kPutFrac;
    c.key = keys_.sample(c.id % kShards, c.stream.u01());
    const std::string& key = keys_.names[c.key];
    auto cb = [this, &c](const tbr::OpResult& r) { done(c, r); };
    if (c.put) {
      c.value = static_cast<std::int64_t>((std::uint64_t{c.id} << 40) | c.ops);
      c.t0 = now_ns();
      client_.put(key, tbr::Value::from_int64(c.value), cb);
    } else {
      const auto reader = static_cast<tbr::ProcessId>(c.stream.below(kN));
      c.t0 = now_ns();
      client_.get(key, reader, cb);
    }
    if (traced_) Tracer::submitted(op_id(c), c.t0, now_ns());
  }

  void done(Caller& c, const tbr::OpResult& r) {
    const std::int64_t t1 = now_ns();
    if (traced_) Tracer::completed(op_id(c), c.t0, t1);
    const std::uint32_t reg = keys_.reg[c.key];
    // Ops on a register complete on its shard's worker: one writer per log.
    ClientOp& op = logs_[reg / kSlots].push();
    op.t0 = c.t0;
    op.t1 = t1;
    op.reg = reg;
    op.proc = c.id;
    op.index = static_cast<std::int32_t>(r.version);
    if (c.put) {
      op.kind = ClientOp::kWrite;
      op.value = c.value;
      if (r.absorbed) op.flags = ClientOp::kAbsorbed;
    } else {
      op.kind = ClientOp::kRead;
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

  tbr::KvClient& client_;
  const KeySpace& keys_;
  std::vector<ChunkedLog<ClientOp>>& logs_;
  bool traced_;
  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
};

struct RunOutput {
  std::vector<Window> windows;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  tbr::BatchStats batch;
  std::vector<std::uint64_t> shard_ops;
  std::uint64_t frames = 0;
  std::uint64_t control_bits_max = 0;
  std::size_t pool_slots = 0;
  std::uint64_t local_memory_peak = 0;  ///< traced runs only
  std::uint64_t history_peak = 0;       ///< traced runs only
  std::string error;
};

RunOutput measure(std::uint64_t seed, double seconds, Tracer* tracer) {
  RunOutput out;
  std::vector<ChunkedLog<ClientOp>> logs(kShards);
  for (auto& log : logs) {
    log.reserve(static_cast<std::size_t>(seconds * 150000.0));
  }
  std::vector<std::unique_ptr<Caller>> callers;
  for (std::uint16_t i = 0; i < kCallers; ++i) {
    auto c = std::make_unique<Caller>();
    c->id = i;
    c->stream = Stream(seed, 1000 + i);
    callers.push_back(std::move(c));
  }
  if (tracer != nullptr) tracer->bind_main_thread();

  tbr::ShardedKvStore store(make_options(seed, tracer));
  const KeySpace keys(seed, store.router());
  ClosedLoop loop(store, keys, logs, tracer != nullptr);
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
  if (!loop.idle()) out.error = "kv-zipf: callers did not drain";
  store.stop();
  out.pool_slots = store.client().pool().capacity();
  out.batch = store.batch_stats();
  out.frames = store.frames_sent();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const auto rep = store.shard_report(s);
    out.shard_ops.push_back(rep.batch.client_ops);
    out.control_bits_max =
        std::max(out.control_bits_max, rep.net.max_control_bits_per_msg());
  }
  if (tracer != nullptr) {
    out.local_memory_peak = tracer->max_local_memory();
    out.history_peak = tracer->max_history_bytes();
  }

  std::vector<const ChunkedLog<ClientOp>*> log_ptrs;
  for (auto& log : logs) {
    log_ptrs.push_back(&log);
    out.ops += log.size();
  }
  for (auto& c : callers) out.failed += c->failed;
  out.windows = windows_of(log_ptrs, from, t_end, kWindowS);
  if (out.error.empty()) {
    const std::string err =
        check_history(log_ptrs, kShards * kSlots, /*kv_writes=*/true);
    if (!err.empty()) out.error = "kv-zipf atomicity: " + err;
  }
  if (out.error.empty() && out.control_bits_max != 2) {
    out.error = "kv-zipf: two-bit slot frames carried " +
                std::to_string(out.control_bits_max) + " control bits";
  }
  return out;
}

/// construct + first put completed, in seconds (0 on failure).
double setup_once(std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  tbr::ShardedKvStore store(make_options(seed, nullptr));
  const tbr::OpResult r = store.client().put_sync(
      "user:0", tbr::Value::from_int64(static_cast<std::int64_t>(seed)));
  const std::int64_t t1 = now_ns();
  return r.status.ok() ? static_cast<double>(t1 - t0) / 1e9 : 0.0;
}

}  // namespace

Report run_kv_zipf(const Args& args) {
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
    note_samples("kv-zipf", run.summary);
    report.add("setup_s", run.setup_s, "s");
    report.add("ops_per_s", run.summary.ops_per_s, "1/s");
    report.add("write_p50_us", run.summary.write_p50_us, "us");
    report.add("read_p50_us", run.summary.read_p50_us, "us");
    return report;
  }

  const double half = args.seconds / 2.0;
  RunOutput plain = measure(args.seed, half, nullptr);
  Tracer tracer(kShards, 0);
  RunOutput traced = measure(args.seed, half, &tracer);
  for (const RunOutput* r : {&plain, &traced}) {
    if (!r->error.empty()) report.fail(r->error);
  }
  report.attempted = plain.ops + traced.ops;
  report.failed = plain.failed + traced.failed;

  const LaneTotals t = tracer.merged();
  const tbr::BatchStats& b = traced.batch;
  add_split_metrics(report, t, Admission::kShardQueue);
  report.add("client.pool_slots", static_cast<double>(traced.pool_slots),
             "count");
  add_frame_metrics(report, t);
  report.add("codec.control_bits_max",
             static_cast<double>(traced.control_bits_max), "bits");
  report.add("protocol.local_memory_peak_bytes",
             static_cast<double>(traced.local_memory_peak), "bytes");
  report.add("history.retained_bytes_peak",
             static_cast<double>(traced.history_peak), "bytes");
  report.add("kvstore.batch_ops", ratio(b.client_ops, b.batches), "count");
  report.add("kvstore.coalesced_read_frac",
             ratio(b.coalesced_reads, b.coalesced_reads + b.protocol_reads),
             "ratio");
  report.add("kvstore.absorbed_write_frac",
             ratio(b.absorbed_writes, b.absorbed_writes + b.protocol_writes),
             "ratio");
  report.add("kvstore.frames_per_op", ratio(traced.frames, traced.ops),
             "count");
  double busiest = 0, total = 0;
  for (const std::uint64_t n : traced.shard_ops) {
    busiest = std::max(busiest, static_cast<double>(n));
    total += static_cast<double>(n);
  }
  report.add("kvstore.shard_skew", ratio(busiest * kShards, total), "ratio");
  const WindowSummary untraced = summarize(plain.windows);
  const WindowSummary with_spans = summarize(traced.windows);
  report.add("write_p99_us", untraced.write_p99_us, "us");
  report.add("read_p99_us", untraced.read_p99_us, "us");
  report.add("trace.write_p50_overhead_us",
             with_spans.write_p50_us - untraced.write_p50_us, "us");
  report.add("trace.read_p50_overhead_us",
             with_spans.read_p50_us - untraced.read_p50_us, "us");
  if (!args.trace_dir.empty()) {
    tracer.write_trace(args.trace_dir + "/kv-zipf-" +
                           std::to_string(args.seed) + ".jsonl",
                       true);
  }
  return report;
}

}  // namespace perfbench
