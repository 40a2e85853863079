#include "workload/sharded_workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace tbr {

namespace {

/// One generated client operation, before routing.
struct GenOp {
  std::uint32_t key_id = 0;
  bool is_write = false;
  std::int64_t payload = 0;
};

/// Zipf(s) sampler over ranks 0..keys-1 via inverse CDF, with ranks
/// shuffled onto key ids so the hot keys land on seed-determined shards.
class KeySampler {
 public:
  KeySampler(std::uint32_t keys, double s, Rng& rng) : rank_to_key_(keys) {
    TBR_ENSURE(keys >= 1, "workload needs at least one key");
    TBR_ENSURE(s >= 0.0, "zipf exponent cannot be negative");
    cdf_.reserve(keys);
    double total = 0.0;
    for (std::uint32_t k = 0; k < keys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    std::iota(rank_to_key_.begin(), rank_to_key_.end(), 0u);
    rng.shuffle(rank_to_key_);
  }

  std::uint32_t sample(Rng& rng) const {
    const double u = rng.uniform01() * cdf_.back();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return rank_to_key_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> rank_to_key_;
};

std::vector<GenOp> generate_ops(const ShardedWorkloadOptions& opt) {
  Rng rng(opt.seed ^ 0x5EEDF00DULL);
  KeySampler sampler(opt.keys, opt.zipf_s, rng);
  std::vector<GenOp> ops;
  ops.reserve(opt.total_ops);
  for (std::uint64_t k = 0; k < opt.total_ops; ++k) {
    GenOp op;
    op.key_id = sampler.sample(rng);
    op.is_write = !rng.chance(opt.read_fraction);
    op.payload = static_cast<std::int64_t>(k + 1);
    ops.push_back(op);
  }
  return ops;
}

std::vector<std::string> make_key_names(std::uint32_t keys) {
  std::vector<std::string> names;
  names.reserve(keys);
  for (std::uint32_t k = 0; k < keys; ++k) {
    names.push_back("key-" + std::to_string(k));
  }
  return names;
}

}  // namespace

// ---- mode 1: the live engine, wall-clock ------------------------------------

ShardedWorkloadResult run_sharded_workload(
    const ShardedWorkloadOptions& options) {
  TBR_ENSURE(options.client_threads >= 1, "need at least one client");
  ShardedKvStore::Options store_opt;
  store_opt.shards = options.shards;
  store_opt.n = options.n;
  store_opt.t = options.t;
  store_opt.slots_per_shard = options.slots_per_shard;
  store_opt.seed = options.seed;
  store_opt.engine = options.engine;
  store_opt.coalesce_writes = options.coalesce_writes;
  store_opt.max_batch = options.max_batch;
  store_opt.min_batch = options.min_batch;
  store_opt.pin_shard_threads = options.pin_shard_threads;
  ShardedKvStore store(std::move(store_opt));

  const auto ops = generate_ops(options);
  const auto keys = make_key_names(options.keys);

  std::vector<std::uint64_t> completed(options.client_threads, 0);
  std::vector<std::uint64_t> failed(options.client_threads, 0);

  const auto started = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> clients;
    clients.reserve(options.client_threads);
    for (std::uint32_t c = 0; c < options.client_threads; ++c) {
      clients.emplace_back([&, c] {
        // Client c owns ops c, c+threads, c+2*threads, ... — every client
        // sees the full key/skew mix. Submission runs in waves of
        // `client_pipeline` pooled ops (the unified KvClient: a Ticket per
        // op, no promise shared state) so each shard's mailbox accumulates
        // a real batching window.
        KvClient& client = store.client();
        std::vector<Ticket> wave;
        wave.reserve(options.client_pipeline);
        auto settle_wave = [&] {
          for (const Ticket& t : wave) {
            const OpResult r = client.wait(t);
            if (r.status.ok()) {
              ++completed[c];
            } else {
              ++failed[c];
            }
          }
          wave.clear();
        };
        for (std::uint64_t k = c; k < ops.size();
             k += options.client_threads) {
          const GenOp& op = ops[k];
          if (op.is_write) {
            wave.push_back(client.put(keys[op.key_id],
                                      Value::from_int64(op.payload)));
          } else {
            wave.push_back(client.get(keys[op.key_id]));
          }
          if (wave.size() >= options.client_pipeline) settle_wave();
        }
        settle_wave();
      });
    }
  }  // join clients
  store.drain();
  const auto stopped = std::chrono::steady_clock::now();

  ShardedWorkloadResult result;
  for (std::uint32_t c = 0; c < options.client_threads; ++c) {
    result.ops_completed += completed[c];
    result.ops_failed += failed[c];
  }
  result.wall_seconds =
      std::chrono::duration<double>(stopped - started).count();
  result.ops_per_sec = result.wall_seconds > 0
                           ? result.ops_completed / result.wall_seconds
                           : 0.0;
  result.batch = store.batch_stats();
  result.frames = store.frames_sent();
  return result;
}

// ---- mode 2: deterministic capacity projection -------------------------------

CapacityProjection project_sharded_capacity(
    const ShardedWorkloadOptions& options) {
  TBR_ENSURE(options.service_time > 0,
             "the capacity projection needs a per-frame service time");
  ShardRouter router(options.shards, options.slots_per_shard, options.n);

  struct RoutedOp {
    Tick arrival = 0;
    std::uint32_t slot = 0;
    ProcessId home = 0;
    bool is_write = false;
    std::int64_t payload = 0;
  };
  const auto ops = generate_ops(options);
  const auto keys = make_key_names(options.keys);
  std::vector<std::vector<RoutedOp>> per_shard(options.shards);
  for (std::uint64_t k = 0; k < ops.size(); ++k) {
    const auto at = router.place(keys[ops[k].key_id]);
    RoutedOp routed;
    routed.arrival = static_cast<Tick>(k) * options.inter_arrival;
    routed.slot = at.slot;
    routed.home = at.home;
    routed.is_write = ops[k].is_write;
    routed.payload = ops[k].payload;
    per_shard[at.shard].push_back(routed);
  }

  const std::uint32_t n = options.n;
  const std::uint32_t t = options.t;
  auto slot_cfg = [n, t](std::uint32_t slot) {
    GroupConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.writer = slot % n;
    cfg.initial = Value();
    cfg.validate();
    return cfg;
  };

  CapacityProjection projection;
  projection.ops = ops.size();
  projection.shard_ticks.assign(options.shards, 0);
  double latency_sum = 0.0;

  for (std::uint32_t s = 0; s < options.shards; ++s) {
    const auto& shard_ops = per_shard[s];
    if (shard_ops.empty()) continue;

    std::vector<std::unique_ptr<ProcessBase>> processes;
    processes.reserve(n);
    const Algorithm engine = options.engine;
    auto factory = [engine](const GroupConfig& cfg, ProcessId pid) {
      return make_register_process(engine, cfg, pid);
    };
    for (ProcessId pid = 0; pid < n; ++pid) {
      processes.push_back(std::make_unique<MuxProcess>(
          options.slots_per_shard, slot_cfg, pid, factory));
    }
    SimNetwork::Options net_opt;
    net_opt.seed = options.seed ^ (0xCAFEULL * (s + 1));
    net_opt.delay = make_constant_delay(options.delay_ticks);
    net_opt.service_time = options.service_time;
    SimNetwork net(std::move(processes), std::move(net_opt));

    ProcessId next_reader = 0;
    std::size_t next = 0;
    while (next < shard_ops.size()) {
      // The batching window: everything that has arrived by the time the
      // previous window finished (bounded by max_batch), or — if the shard
      // is idle — the next op alone at its arrival instant. A min_batch
      // floor (group commit) holds the window open until enough ops have
      // arrived; the tail of the trace opens partial so the run drains.
      Tick start = std::max(net.now(), shard_ops[next].arrival);
      if (options.min_batch > 1) {
        const std::size_t want =
            std::min(options.min_batch, shard_ops.size() - next);
        start = std::max(start, shard_ops[next + want - 1].arrival);
      }
      std::size_t end = next;
      while (end < shard_ops.size() && shard_ops[end].arrival <= start &&
             (options.max_batch == 0 ||
              end - next < options.max_batch)) {
        ++end;
      }

      std::vector<std::vector<MuxProcess::BatchOp>> per_node(n);
      for (std::size_t k = next; k < end; ++k) {
        const RoutedOp& op = shard_ops[k];
        MuxProcess::BatchOp batch_op;
        batch_op.slot = op.slot;
        if (op.is_write) {
          batch_op.is_write = true;
          batch_op.value = Value::from_int64(op.payload);
          per_node[op.home].push_back(std::move(batch_op));
        } else {
          const ProcessId reader = next_reader;
          next_reader = (next_reader + 1) % n;
          per_node[reader].push_back(std::move(batch_op));
        }
      }

      auto outstanding = std::make_shared<std::size_t>(0);
      for (ProcessId pid = 0; pid < n; ++pid) {
        if (per_node[pid].empty()) continue;
        ++*outstanding;
      }
      net.schedule_at(start, [&net, &per_node, n, outstanding,
                              coalesce = options.coalesce_writes,
                              stats = &projection.batch] {
        for (ProcessId pid = 0; pid < n; ++pid) {
          if (per_node[pid].empty()) continue;
          auto& mux = net.process_as<MuxProcess>(pid);
          mux.start_batch(net.context(pid), std::move(per_node[pid]),
                          coalesce, [outstanding] { --*outstanding; },
                          stats);
        }
      });
      const bool ok = net.run_until(
          [outstanding] { return *outstanding == 0; });
      TBR_ENSURE(ok, "capacity projection lost liveness (bug)");
      // Client-observed latency: the whole window completes together, so
      // every op in it waited from its arrival to the window's finish.
      for (std::size_t k = next; k < end; ++k) {
        latency_sum +=
            static_cast<double>(net.now() - shard_ops[k].arrival);
      }
      next = end;
    }
    projection.shard_ticks[s] = net.now();
    projection.frames += net.stats().total_sent();
  }
  projection.mean_latency_ticks =
      projection.ops > 0 ? latency_sum / static_cast<double>(projection.ops)
                         : 0.0;

  projection.busiest_shard_ticks = *std::max_element(
      projection.shard_ticks.begin(), projection.shard_ticks.end());
  projection.ops_per_mtick =
      projection.busiest_shard_ticks > 0
          ? static_cast<double>(projection.ops) * 1e6 /
                static_cast<double>(projection.busiest_shard_ticks)
          : 0.0;
  return projection;
}

}  // namespace tbr
