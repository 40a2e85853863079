#include "kvstore/sharded_store.hpp"

#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/contracts.hpp"
#include "runtime/affinity.hpp"

namespace tbr {

namespace {

constexpr Status kStoreShutdown{StatusCode::kShutdown, "store is shut down"};
constexpr Status kHomeCrashed{StatusCode::kCrashed,
                              "the key's home replica has crashed"};
constexpr Status kReaderCrashed{StatusCode::kCrashed,
                                "the requested replica has crashed"};
constexpr Status kLivenessRefused{
    StatusCode::kLivenessLost, "shard lost liveness; operations are refused"};
constexpr Status kLivenessMidBatch{StatusCode::kLivenessLost,
                                   "shard lost liveness mid-batch"};

/// Every shard's channel delay Δ. Shards keep SimNetwork's default
/// service_time of 0: no node capacity model, as the CAMP model assumes.
constexpr Tick kShardDelayTicks = 1000;

}  // namespace

/// One queued client request (or a crash marker) bound for a shard worker.
/// The operation itself is a pooled OpState owned by the store's client;
/// the mailbox entry is just a pointer — no promises, no shared state.
struct ShardedKvStore::ShardOp {
  OpState* op = nullptr;             ///< null => crash marker
  ProcessId crash_node = kNoProcess; ///< crash markers only
};

/// Everything one register group owns. The worker thread is the only one
/// touching `net` and the plain fields below it; cross-thread state is the
/// mailbox, the inflight counter, and the report snapshot, each with its
/// own synchronization.
struct ShardedKvStore::Shard {
  std::uint32_t id = 0;
  std::uint32_t n = 0;
  bool coalesce_writes = true;
  std::size_t max_batch = 0;
  std::size_t min_batch = 0;
  std::chrono::microseconds min_batch_wait{0};
  bool pin = false;

  MailboxT<ShardOp> mailbox;

  // Worker-only.
  std::unique_ptr<SimNetwork> net;
  BatchStats batch;
  std::uint64_t failed_ops = 0;
  ProcessId next_reader = 0;
  /// A batch stalled (more than t crashes, or an event-budget blowout).
  /// The stalled registers keep their one-op-at-a-time guard armed, so no
  /// further protocol operation may be issued here: every later client op
  /// fails fast instead. The latch also guarantees the shard never runs
  /// its simulator again, so a stalled window's parked callbacks can never
  /// fire late into recycled state.
  bool lost_liveness = false;
  /// Window scratch, reused every batch (steady state: no allocation).
  std::vector<std::vector<MuxProcess::BatchOp>> per_node;
  std::vector<std::pair<OpState*, std::uint32_t>> issued;  // (op, gen)
  std::vector<OpState*> to_fail;
  std::size_t outstanding_nodes = 0;

  // drain(): ops accepted but not yet resolved.
  std::mutex idle_mu;
  std::condition_variable idle_cv;
  std::int64_t inflight = 0;

  // Published after every window; readable from any thread.
  mutable std::mutex report_mu;
  ShardReport report;

  void op_accepted() {
    const std::scoped_lock lock(idle_mu);
    ++inflight;
  }
  void ops_resolved(std::int64_t count) {
    {
      const std::scoped_lock lock(idle_mu);
      inflight -= count;
      TBR_ENSURE(inflight >= 0, "inflight underflow");
    }
    idle_cv.notify_all();
  }
};

// ---- ClientImpl: the unified client API over the shard workers ---------------

class ShardedKvStore::ClientImpl final : public KvClientEngine {
 public:
  explicit ClientImpl(ShardedKvStore& store) : store_(store), client_(*this) {}

  void client_route(std::string_view key, OpState& st) override {
    const ShardRouter::Placement at = store_.router_.place(key);
    st.shard = at.shard;
    st.slot = at.slot;
    if (st.kind == OpKind::kWrite) {
      st.node = at.home;
    } else {
      TBR_ENSURE(st.node == kAnyReplica || st.node < store_.opt_.n,
                 "reader out of range");
    }
  }

  void client_issue(OpState& st) override {
    Shard& shard = *store_.shards_[st.shard];
    shard.op_accepted();
    ShardOp op;
    op.op = &st;
    if (!shard.mailbox.push(std::move(op))) {
      shard.ops_resolved(1);
      st.owner->complete_failed(st, kStoreShutdown);
    }
  }

  void client_park(OpState& st, OpPool& pool) override {
    pool.block_until_ready(st);
  }

  KvClient& client() noexcept { return client_; }

 private:
  ShardedKvStore& store_;
  KvClient client_;
};

ShardedKvStore::ShardedKvStore(Options options)
    : opt_(std::move(options)),
      router_(opt_.shards, opt_.slots_per_shard, opt_.n) {
  TBR_ENSURE(opt_.shards >= 1, "store needs at least one shard");
  const std::uint32_t n = opt_.n;

  // An explicit factory wins; otherwise the engine knob picks the per-slot
  // register protocol (two-bit default, or a fast-path read engine).
  if (!opt_.register_factory) {
    const Algorithm engine = opt_.engine;
    opt_.register_factory = [engine](const GroupConfig& cfg, ProcessId pid) {
      return make_register_process(engine, cfg, pid);
    };
  }

  shards_.reserve(opt_.shards);
  for (std::uint32_t s = 0; s < opt_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->id = s;
    shard->n = n;
    shard->coalesce_writes = opt_.coalesce_writes;
    shard->max_batch = opt_.max_batch;
    shard->min_batch = opt_.min_batch;
    shard->min_batch_wait = opt_.min_batch_wait;
    shard->pin = opt_.pin_shard_threads;
    shard->per_node.resize(n);

    SimNetwork::Options net_opt;
    net_opt.seed = opt_.seed ^ (0x5A17ULL * (s + 1));
    net_opt.delay = make_constant_delay(kShardDelayTicks);
    // Slot homes match ShardRouter's placement (home = slot mod n).
    shard->net = std::make_unique<SimNetwork>(
        make_mux_group(n, opt_.t, opt_.slots_per_shard, opt_.initial,
                       opt_.register_factory),
        std::move(net_opt));
    shards_.push_back(std::move(shard));
  }

  client_impl_ = std::make_unique<ClientImpl>(*this);

  workers_.reserve(opt_.shards);
  for (auto& shard : shards_) {
    workers_.emplace_back([s = shard.get()](std::stop_token st) {
      worker_loop(*s, st);
    });
  }
}

ShardedKvStore::~ShardedKvStore() { stop(); }

void ShardedKvStore::stop() {
  for (auto& shard : shards_) shard->mailbox.close();
  workers_.clear();  // jthread: request_stop + join (drains queued windows)
}

KvClient& ShardedKvStore::client() noexcept { return client_impl_->client(); }

std::uint32_t ShardedKvStore::shard_count() const noexcept {
  return static_cast<std::uint32_t>(shards_.size());
}

std::uint32_t ShardedKvStore::node_count() const noexcept { return opt_.n; }

void ShardedKvStore::crash(std::uint32_t shard, ProcessId node) {
  TBR_ENSURE(shard < shards_.size(), "shard out of range");
  TBR_ENSURE(node < opt_.n, "node out of range");
  ShardOp op;
  op.crash_node = node;
  Shard& s = *shards_[shard];
  s.op_accepted();
  if (!s.mailbox.push(std::move(op))) s.ops_resolved(1);
}

void ShardedKvStore::drain() {
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->idle_mu);
    shard->idle_cv.wait(lock, [&] { return shard->inflight == 0; });
  }
}

// ---- observability ------------------------------------------------------------

ShardedKvStore::ShardReport ShardedKvStore::shard_report(
    std::uint32_t shard) const {
  TBR_ENSURE(shard < shards_.size(), "shard out of range");
  const std::scoped_lock lock(shards_[shard]->report_mu);
  return shards_[shard]->report;
}

BatchStats ShardedKvStore::batch_stats() const {
  BatchStats merged;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    merged.merge(shard_report(s).batch);
  }
  return merged;
}

std::uint64_t ShardedKvStore::frames_sent() const {
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    total += shard_report(s).net.total_sent();
  }
  return total;
}

// ---- the shard worker ---------------------------------------------------------

void ShardedKvStore::worker_loop(Shard& shard, std::stop_token st) {
  if (shard.pin) (void)pin_current_thread(shard.id);

  // One window buffer for the worker's lifetime: pop_all refills it in
  // place, so steady-state batching never allocates for the window itself.
  std::vector<ShardOp> window;
  while (true) {
    shard.mailbox.pop_all(st, window, shard.max_batch, shard.min_batch,
                          shard.min_batch_wait);
    if (window.empty()) return;  // closed and drained, or stop requested

    // Crash markers apply between batching windows: everything in this
    // window is planned against the post-crash group.
    std::int64_t resolved = 0;
    for (auto& op : window) {
      if (op.op != nullptr) continue;
      shard.net->crash_now(op.crash_node);
      ++resolved;
    }

    // A shard that stalled once can never complete another quorum — and
    // its stalled registers still hold their one-op-per-process guard, so
    // issuing into them would be a contract violation. Everything fails
    // fast from here on.
    if (shard.lost_liveness) {
      for (auto& op : window) {
        if (op.op == nullptr) continue;
        op.op->owner->complete_failed(*op.op, kLivenessRefused);
        ++resolved;
        ++shard.failed_ops;
      }
      publish_report(shard);
      shard.ops_resolved(resolved);
      continue;
    }

    // Plan the window: one MuxProcess batch per replica that has work.
    // Reads go to their chosen replica, writes to their slot's home; ops
    // whose replica has crashed fail fast, before any protocol traffic.
    // All scratch (per-node op lists, the issued registry) is reused.
    for (auto& ops : shard.per_node) ops.clear();
    shard.issued.clear();
    for (auto& sop : window) {
      if (sop.op == nullptr) continue;
      OpState& op = *sop.op;
      if (op.kind == OpKind::kWrite) {
        if (shard.net->crashed(op.node)) {
          op.owner->complete_failed(op, kHomeCrashed);
          ++resolved;
          ++shard.failed_ops;
          continue;
        }
        MuxProcess::BatchOp batch_op;
        batch_op.slot = op.slot;
        batch_op.is_write = true;
        batch_op.value = std::move(op.value);
        // One captured pointer: stays in std::function's inline storage.
        batch_op.write_done = [&op](SeqNo version, bool absorbed) {
          op.result.version = version;
          op.result.absorbed = absorbed;
          op.owner->complete(op);
        };
        shard.issued.emplace_back(&op, op.gen);
        shard.per_node[op.node].push_back(std::move(batch_op));
      } else {
        ProcessId reader = op.node;
        if (reader == kAnyReplica) {
          // Rotate over live replicas for an even read fan-out.
          for (std::uint32_t tries = 0; tries < shard.n; ++tries) {
            reader = shard.next_reader;
            shard.next_reader = (shard.next_reader + 1) % shard.n;
            if (!shard.net->crashed(reader)) break;
          }
        }
        if (shard.net->crashed(reader)) {
          op.owner->complete_failed(op, kReaderCrashed);
          ++resolved;
          ++shard.failed_ops;
          continue;
        }
        MuxProcess::BatchOp batch_op;
        batch_op.slot = op.slot;
        batch_op.read_done = [&op](const Value& v, SeqNo index) {
          op.result.value = v;  // copy into the pooled capacity
          op.result.version = index;
          op.owner->complete(op);
        };
        shard.issued.emplace_back(&op, op.gen);
        shard.per_node[reader].push_back(std::move(batch_op));
      }
    }

    // Issue every node's batch into one simulation run; chains across
    // nodes and slots interleave exactly as concurrent clients would. The
    // outstanding counter is a plain shard field: the lost_liveness latch
    // guarantees a stalled window's parked callbacks can never fire later
    // (the shard's simulator never runs again).
    shard.outstanding_nodes = 0;
    std::size_t issued_ops = 0;
    for (ProcessId pid = 0; pid < shard.n; ++pid) {
      auto& node_ops = shard.per_node[pid];
      if (node_ops.empty()) continue;
      ++shard.outstanding_nodes;
      issued_ops += node_ops.size();
      auto& mux = shard.net->process_as<MuxProcess>(pid);
      mux.start_batch(shard.net->context(pid),
                      std::span<MuxProcess::BatchOp>(node_ops),
                      shard.coalesce_writes,
                      [&shard] { --shard.outstanding_nodes; },
                      &shard.batch);
    }
    if (shard.outstanding_nodes > 0) {
      const bool ok = shard.net->run_until(
          [&shard] { return shard.outstanding_nodes == 0; });
      if (!ok) {
        // Liveness lost (more than t crashes, or an event-budget blowout):
        // whatever the protocol could not finish fails over to the client,
        // and the shard refuses everything from now on (see above). The
        // issued registry is filtered under the pool lock: ops that
        // already completed are ready (wait mode) or recycled with a new
        // generation (callback mode) — only the stuck ones are failed.
        shard.lost_liveness = true;
        shard.to_fail.clear();
        if (!shard.issued.empty()) {
          OpPool& pool = shard.issued.front().first->owner->pool();
          const std::scoped_lock lock(pool.mu());
          for (const auto& [op, gen] : shard.issued) {
            if (op->ready.load(std::memory_order_acquire)) continue;
            if (op->gen != gen) continue;
            shard.to_fail.push_back(op);
          }
        }
        for (OpState* op : shard.to_fail) {
          op->owner->complete_failed(*op, kLivenessMidBatch);
        }
        shard.failed_ops += issued_ops;  // upper bound; resolved ops ignore it
      }
    }
    resolved += static_cast<std::int64_t>(issued_ops);

    publish_report(shard);
    shard.ops_resolved(resolved);
  }
}

void ShardedKvStore::publish_report(Shard& shard) {
  const std::scoped_lock lock(shard.report_mu);
  shard.report.batch = shard.batch;
  shard.report.net = shard.net->stats();
  shard.report.virtual_now = shard.net->now();
  shard.report.failed_ops = shard.failed_ops;
  shard.report.lost_liveness = shard.lost_liveness;
}

}  // namespace tbr
