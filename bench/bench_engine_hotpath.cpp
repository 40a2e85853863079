// E-HOT: the engine's per-message and per-operation constant factors.
//
// The paper minimizes what a frame carries (2 control bits); this bench
// tracks what a frame *costs the runtime* (heap allocations per delivered
// frame, events per second through the simulator's innermost loop) and —
// since the unified client API — what an OPERATION costs end to end
// through each engine's convenience surface.
//
// Measurements:
//   1. sim steady state  — allocations counted during pure dissemination
//      windows (relay ring: only protocol frames fly, no client-op
//      machinery). Gated: 0 allocs/frame.
//   2. sim closed loop   — whole-run events/sec and allocs/event for a
//      closed-loop write/read mix (wall clock: reported, never gated).
//   3. threaded runtime  — allocations per sent frame across a window of
//      client operations on real threads, in client callback mode.
//      Gated against the recorded pre-optimization baseline.
//   4. ticket allocs/op  — the unified client API: closed loops through
//      RegisterClient (sim + threaded, gated == 0; socket over loopback
//      TCP, gated <= 1) and pipelined min-batch windows through the
//      sharded store's KvClient (gated <= 1 alloc/op).
//
// Allocation counts come from the replaced global operator new
// (bench/alloc_hooks) — deterministic for the sim measurements (fixed
// event schedule), and deterministic for the sharded windows because
// Options::min_batch pins the batching-window sizes.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/alloc_hooks.hpp"
#include "bench/bench_common.hpp"
#include "common/table.hpp"
#include "bench/relay_harness.hpp"
#include "kvstore/sharded_store.hpp"
#include "sim/sim_network.hpp"
#include "runtime/thread_network.hpp"
#include "transport/socket_network.hpp"

namespace tbr::bench {
namespace {

// Pre-optimization baselines (commit 04722b9, this machine, release build),
// recorded before the zero-allocation hot-path rework so the JSON trail
// and the CI criterion both state what the optimization is measured
// against. The threaded criterion is a >= 90% reduction on allocs/frame.
constexpr double kPrePrSimRelayAllocsPerFrame = 2.00;
constexpr double kPrePrThreadedAllocsPerFrame = 0.42;
constexpr double kThreadedCriterion = kPrePrThreadedAllocsPerFrame * 0.10;
// The sharded KvClient acceptance: pooled completions plus recycled
// window/plan storage must keep the whole per-op overhead within one
// allocation (the pre-redesign promise plumbing cost ~4 allocs/op in the
// client alone, before the per-window planning allocations).
constexpr double kShardedCriterion = 1.0;
// The socket ticket acceptance: commands ride recycled vectors, frames a
// consumed-offset ring, completions the pooled OpStates — the deleted
// promise path allocated shared state + exception plumbing per op.
constexpr double kSocketCriterion = 1.0;

struct SimSteadyResult {
  std::uint64_t frames = 0;
  std::uint64_t allocs = 0;
};

SimSteadyResult measure_sim_relay(std::size_t payload_bytes,
                                  std::uint64_t laps) {
  SimNetwork net(make_relays(3, payload_bytes), SimNetwork::Options{});

  // Warm-up lap: sizes the event heap, the frame pool and its slot
  // capacities. Everything after this is steady state.
  kick_relay(net, 64);
  net.run();

  SimSteadyResult out;
  const auto events_before = net.events_executed();
  kick_relay(net, static_cast<SeqNo>(laps));
  const alloc::Window w;
  net.run();
  out.allocs = w.allocations();
  out.frames = net.events_executed() - events_before - 1;  // minus the kick
  return out;
}

struct SimLoopResult {
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t allocs = 0;
  double wall_seconds = 0.0;
};

SimLoopResult measure_sim_loop(std::uint32_t n, std::uint32_t ops) {
  auto group = make_group(Algorithm::kTwoBit, n);
  group.client().write_sync(Value::from_int64(0));
  group.settle();

  const alloc::Window w;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t k = 0; k < ops; ++k) {
    group.client().write_sync(Value::from_int64(k));
    group.client().read_sync((k % (n - 1)) + 1);
  }
  group.settle();
  const auto t1 = std::chrono::steady_clock::now();

  SimLoopResult out;
  out.events = group.net().events_executed();
  out.frames = group.net().stats().total_sent();
  out.allocs = w.allocations();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

struct OpsResult {
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frames = 0;
};

// Closed loop through the Ticket convenience API on the simulator: every
// op is submit + wait (which drives the event loop). Gated == 0 allocs/op.
//
// Window discipline (same as alloc_regression_test): the two-bit
// register's history deque grows by design — one entry per write, a
// fresh chunk every 16 entries per process. That is protocol state (the
// paper's bounded-memory open problem), not runtime overhead, so the
// measured window holds exactly 8 writes positioned inside the current
// chunk (16 warm writes -> entries 17..24 of 32), plus chunk-neutral
// reads for volume.
OpsResult measure_sim_tickets(std::uint32_t n) {
  auto group = make_group(Algorithm::kTwoBit, n);
  RegisterClient& client = group.client();
  for (std::uint32_t k = 0; k < 16; ++k) {  // warm pool + engine + chunk
    (void)client.write_sync(Value::from_int64(k));
    (void)client.read_sync((k % (n - 1)) + 1);
    (void)client.read_sync((k % (n - 1)) + 1);
  }
  group.settle();

  OpsResult out;
  const alloc::Window w;
  for (std::uint32_t k = 0; k < 8; ++k) {
    (void)client.write_sync(Value::from_int64(1000 + k));
    (void)client.read_sync((k % (n - 1)) + 1);
    (void)client.read_sync(((k + 1) % (n - 1)) + 1);
  }
  group.settle();
  out.ops = 24;
  out.allocs = w.allocations();
  return out;
}

struct ThreadedResult {
  std::uint64_t frames = 0;
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
};

// Reusable one-shot completion latch for client callback mode: the lambda
// captures one pointer, so the whole op round-trip allocates only what the
// runtime itself allocates (the quantity under test).
class OpLatch {
 public:
  void signal() {
    {
      const std::scoped_lock lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
  }
  void wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    done_ = false;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

enum class ThreadedApi { kCallbacks, kTickets };

// Closed loop on the threaded runtime through the two client completion
// shapes: callback mode (client.write(v, cb)) and tickets (both gated). The ticket window applies the same history-chunk
// discipline as measure_sim_tickets (writes are 1 op in 4; windows stay
// inside the warmed chunk), so its == 0 criterion measures the client
// path alone; the callback windows keep the historical 50% write mix and
// are gated against the per-frame reduction criterion instead.
ThreadedResult measure_threaded(std::uint32_t n, std::uint32_t window_ops,
                                ThreadedApi api) {
  ThreadNetwork::Options opt;
  opt.cfg = make_cfg(n);
  opt.algo = Algorithm::kTwoBit;
  opt.seed = 7;
  opt.min_delay_us = 0;
  opt.max_delay_us = 0;  // as fast as possible: the hot path itself
  ThreadNetwork net(opt);
  net.start();

  OpLatch latch;
  RegisterClient& client = net.client();
  auto one_op = [&](std::uint32_t k) {
    const ProcessId reader = (k % (n - 1)) + 1;
    const bool is_write =
        api == ThreadedApi::kTickets ? k % 4 == 0 : k % 2 == 0;
    switch (api) {
      case ThreadedApi::kTickets:
        if (is_write) {
          (void)client.write_sync(Value::from_int64(k));
        } else {
          (void)client.read_sync(reader);
        }
        return;
      case ThreadedApi::kCallbacks: {
        const auto signal = [&latch](const OpResult&) { latch.signal(); };
        if (is_write) {
          client.write(Value::from_int64(k), signal);
        } else {
          client.read(reader, signal);
        }
        latch.wait();
        return;
      }
    }
  };

  for (std::uint32_t k = 0; k < 256; ++k) one_op(k);  // warm pools/capacities

  if (api == ThreadedApi::kTickets) {
    // Exact == 0 criterion on a concurrent runtime: the dispatcher heap,
    // buffer pool and mailbox rings grow to their high-water marks
    // asynchronously, so a single window can still catch a late growth
    // step. The minimum across consecutive windows is the steady state —
    // if the per-op path itself allocated, EVERY window would count it.
    ThreadedResult out;
    out.ops = window_ops;
    out.allocs = ~0ull;
    const auto before = net.stats_snapshot();
    for (int window = 0; window < 4; ++window) {
      const alloc::Window w;
      for (std::uint32_t k = 0; k < window_ops; ++k) one_op(k);
      out.allocs = std::min(out.allocs, w.allocations());
    }
    out.frames = net.stats_snapshot().diff_since(before).total_sent() / 4;
    return out;
  }

  const auto before = net.stats_snapshot();
  const alloc::Window w;
  for (std::uint32_t k = 0; k < window_ops; ++k) one_op(k);
  ThreadedResult out;
  out.allocs = w.allocations();
  out.ops = window_ops;
  out.frames = net.stats_snapshot().diff_since(before).total_sent();
  return out;
}

// Closed loop through the socket runtime's RegisterClient: loopback TCP,
// one op in flight, completions resolved on the owning loop thread. The
// same min-of-windows discipline as the threaded ticket gate (poll-loop
// vectors, outbufs and the inbound rings reach their high-water marks
// asynchronously across n loop threads); writes are 1 op in 4 so windows
// stay inside the warmed history chunk.
OpsResult measure_socket_tickets(std::uint32_t n, std::uint32_t window_ops) {
  SocketNetwork::Options opt;
  opt.cfg = make_cfg(n);
  opt.algo = Algorithm::kTwoBit;
  SocketNetwork net(std::move(opt));
  net.start();
  RegisterClient& client = net.client();
  auto one_op = [&](std::uint32_t k) {
    if (k % 4 == 0) {
      (void)client.write_sync(Value::from_int64(k));
    } else {
      (void)client.read_sync((k % (n - 1)) + 1);
    }
  };
  for (std::uint32_t k = 0; k < 256; ++k) one_op(k);  // warm rings/pools

  OpsResult out;
  out.ops = window_ops;
  out.allocs = ~0ull;
  for (int window = 0; window < 4; ++window) {
    const alloc::Window w;
    for (std::uint32_t k = 0; k < window_ops; ++k) one_op(k);
    out.allocs = std::min(out.allocs, w.allocations());
  }
  net.stop();
  return out;
}

// Pipelined waves through the sharded store's KvClient. min_batch ==
// max_batch == the wave size pins every batching window to exactly one
// wave, so the planning/completion work per window — and therefore the
// allocation count — is deterministic, CPU-speed independent.
OpsResult measure_sharded_kvclient(std::uint32_t waves,
                                   std::uint32_t wave_ops) {
  ShardedKvStore::Options opt;
  opt.shards = 1;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 16;
  opt.min_batch = wave_ops;
  opt.max_batch = wave_ops;
  opt.min_batch_wait = std::chrono::microseconds(200'000);
  ShardedKvStore store(std::move(opt));
  KvClient& client = store.client();

  std::vector<std::string> keys;
  for (int k = 0; k < 8; ++k) keys.push_back("key-" + std::to_string(k));
  std::vector<Ticket> tickets(wave_ops);

  auto run_wave = [&](std::uint32_t wave) {
    for (std::uint32_t k = 0; k < wave_ops; ++k) {
      const std::string& key = keys[(wave + k) % keys.size()];
      tickets[k] = (k % 4 == 0)
                       ? client.put(key, Value::from_int64(wave + k))
                       : client.get(key);
    }
    for (std::uint32_t k = 0; k < wave_ops; ++k) {
      (void)client.wait(tickets[k]);
    }
  };

  for (std::uint32_t wave = 0; wave < 8; ++wave) run_wave(wave);  // warm

  OpsResult out;
  const alloc::Window w;
  for (std::uint32_t wave = 0; wave < waves; ++wave) run_wave(wave);
  store.drain();
  out.ops = static_cast<std::uint64_t>(waves) * wave_ops;
  out.allocs = w.allocations();
  out.frames = store.frames_sent();
  return out;
}

double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

int run() {
  const bool quick = quick_mode();
  print_header("E-HOT: engine hot path (allocs/frame, allocs/op, events/sec)",
               "runtime overhead per frame AND per operation ~0 once rounds "
               "are minimal");

  const std::uint32_t n = 5;
  const auto relay_ctl = measure_sim_relay(0, quick ? 2000 : 20000);
  const auto relay_val = measure_sim_relay(1024, quick ? 2000 : 20000);
  const auto loop = measure_sim_loop(n, quick ? 200 : 2000);
  const auto sim_tickets = measure_sim_tickets(n);
  const auto threaded =
      measure_threaded(n, quick ? 64 : 256, ThreadedApi::kCallbacks);
  // Fixed 32-op window: 8 writes stay inside the warmed history chunk
  // (see the function comment) — the == 0 gate measures the client path.
  const auto thr_tickets = measure_threaded(n, 32, ThreadedApi::kTickets);
  // Same 32-op / 8-write window discipline on the socket runtime.
  const auto sock_tickets = measure_socket_tickets(n, 32);
  const auto sharded = measure_sharded_kvclient(quick ? 8 : 32, 64);

  TextTable t({"measurement", "frames", "ops", "allocs", "allocs/frame",
               "allocs/op"});
  t.add_row({"sim relay, control frames (gated)",
             std::to_string(relay_ctl.frames), "-",
             std::to_string(relay_ctl.allocs),
             format_double(per(relay_ctl.allocs, relay_ctl.frames), 3), "-"});
  t.add_row({"sim relay, 1 KiB payload (gated)",
             std::to_string(relay_val.frames), "-",
             std::to_string(relay_val.allocs),
             format_double(per(relay_val.allocs, relay_val.frames), 3), "-"});
  t.add_row({"sim closed loop (events/sec below)",
             std::to_string(loop.frames), "-", std::to_string(loop.allocs),
             format_double(per(loop.allocs, loop.frames), 3), "-"});
  t.add_row({"sim closed loop, tickets (gated)", "-",
             std::to_string(sim_tickets.ops),
             std::to_string(sim_tickets.allocs), "-",
             format_double(per(sim_tickets.allocs, sim_tickets.ops), 3)});
  t.add_row({"threaded window, callbacks (gated)",
             std::to_string(threaded.frames), std::to_string(threaded.ops),
             std::to_string(threaded.allocs),
             format_double(per(threaded.allocs, threaded.frames), 3),
             format_double(per(threaded.allocs, threaded.ops), 3)});
  t.add_row({"threaded window, tickets (gated)",
             std::to_string(thr_tickets.frames),
             std::to_string(thr_tickets.ops),
             std::to_string(thr_tickets.allocs), "-",
             format_double(per(thr_tickets.allocs, thr_tickets.ops), 3)});
  t.add_row({"socket window, tickets (gated)", "-",
             std::to_string(sock_tickets.ops),
             std::to_string(sock_tickets.allocs), "-",
             format_double(per(sock_tickets.allocs, sock_tickets.ops), 3)});
  t.add_row({"sharded kvclient, min-batch waves (gated)",
             std::to_string(sharded.frames), std::to_string(sharded.ops),
             std::to_string(sharded.allocs), "-",
             format_double(per(sharded.allocs, sharded.ops), 3)});
  std::cout << t.render() << "\n";
  std::printf("sim closed loop: %.0f events/sec (wall clock, informative)\n",
              loop.wall_seconds > 0
                  ? static_cast<double>(loop.events) / loop.wall_seconds
                  : 0.0);

  const std::uint64_t relay_allocs = relay_ctl.allocs + relay_val.allocs;
  const double sim_per_frame =
      per(relay_allocs, relay_ctl.frames + relay_val.frames);
  const double thr_per_frame = per(threaded.allocs, threaded.frames);
  const double sim_ticket_per_op = per(sim_tickets.allocs, sim_tickets.ops);
  const double thr_ticket_per_op = per(thr_tickets.allocs, thr_tickets.ops);
  const double sock_ticket_per_op = per(sock_tickets.allocs, sock_tickets.ops);
  const double sharded_per_op = per(sharded.allocs, sharded.ops);
  std::printf(
      "acceptance: sim steady-state allocs/frame = %.3f (criterion: == 0; "
      "pre-PR baseline %.2f)\n",
      sim_per_frame, kPrePrSimRelayAllocsPerFrame);
  std::printf(
      "acceptance: threaded allocs/frame = %.3f (criterion: <= %.3f, i.e. "
      ">= 90%% reduction vs pre-PR baseline %.2f)\n",
      thr_per_frame, kThreadedCriterion, kPrePrThreadedAllocsPerFrame);
  std::printf(
      "acceptance: ticket allocs/op (sim) = %.3f (criterion: == 0)\n",
      sim_ticket_per_op);
  std::printf(
      "acceptance: ticket allocs/op (threaded) = %.3f (criterion: == 0)\n",
      thr_ticket_per_op);
  std::printf(
      "acceptance: ticket allocs/op (socket) = %.3f (criterion: <= %.1f)\n",
      sock_ticket_per_op, kSocketCriterion);
  std::printf(
      "acceptance: kvclient allocs/op (sharded) = %.3f (criterion: <= "
      "%.1f)\n",
      sharded_per_op, kShardedCriterion);

  const bool ok = relay_allocs == 0 && thr_per_frame <= kThreadedCriterion &&
                  sim_tickets.allocs == 0 && thr_tickets.allocs == 0 &&
                  sock_ticket_per_op <= kSocketCriterion &&
                  sharded_per_op <= kShardedCriterion;
  std::printf("verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace tbr::bench

int main() { return tbr::bench::run(); }
