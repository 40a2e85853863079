// Allocation-regression gate: steady-state message delivery in the sim
// runtime performs ZERO heap allocations per frame.
//
// Linked against bench/alloc_hooks (replaced global operator new with
// atomic counters), and registered with CTest only in non-sanitized builds
// — ASan/TSan interpose their own allocator and must not be mixed with the
// counting one. The simulator is single-threaded and deterministic, so
// these are exact equalities, not thresholds: any future change that puts
// an allocation back on the delivery path fails the suite immediately.
//
// What "steady state" means here: pools, freelists, event-heap backing
// storage and per-process container capacities are warmed by a first round
// of traffic; the measured window then repeats the same kind of traffic.
// Protocol state that grows by design (the two-bit register's history)
// is kept inside its current capacity chunk by the warmup/window sizing —
// growth of protocol state is not runtime overhead and is measured
// separately by bench_engine_hotpath.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/alloc_hooks.hpp"
#include "bench/relay_harness.hpp"
#include "core/twobit_process.hpp"
#include "kvstore/sharded_store.hpp"
#include "runtime/thread_network.hpp"
#include "sim/sim_network.hpp"
#include "transport/socket_network.hpp"
#include "workload/sim_register_group.hpp"

namespace tbr {
namespace {

TEST(AllocRegression, DeliveryLoopIsAllocFree) {
  SimNetwork net(bench::make_relays(3, 0), SimNetwork::Options{});
  bench::kick_relay(net, 64);  // warm: event heap, frame pool, freelist
  ASSERT_TRUE(net.run());

  bench::kick_relay(net, 4096);
  const alloc::Window w;
  ASSERT_TRUE(net.run());
  EXPECT_EQ(w.allocations(), 0u)
      << "steady-state deliveries must not touch the heap";
}

TEST(AllocRegression, DeliveryLoopIsAllocFreeWithLargePayloads) {
  // 4 KiB values: the frame pool's recycled slots must absorb non-SSO
  // payloads through capacity reuse (copy-assign into a warmed slot).
  SimNetwork net(bench::make_relays(3, 4096), SimNetwork::Options{});
  bench::kick_relay(net, 64);
  ASSERT_TRUE(net.run());

  bench::kick_relay(net, 1024);
  const alloc::Window w;
  ASSERT_TRUE(net.run());
  EXPECT_EQ(w.allocations(), 0u)
      << "warmed pool slots must absorb 4 KiB payloads without allocating";
}

TEST(AllocRegression, CapacityModelDeliveryIsAllocFree) {
  // Same loop under the service-time capacity model: parked frames ride
  // the vector-ring service FIFO and drain events, which must also be
  // allocation-free once warm.
  SimNetwork::Options opt;
  opt.service_time = 1500;  // busier than the 1000-tick channel delay
  SimNetwork net(bench::make_relays(3, 0), std::move(opt));
  bench::kick_relay(net, 128);
  ASSERT_TRUE(net.run());

  bench::kick_relay(net, 2048);
  const alloc::Window w;
  ASSERT_TRUE(net.run());
  EXPECT_EQ(w.allocations(), 0u)
      << "parked-frame rings and drain events must not allocate";
}

TEST(AllocRegression, EventQueueClosureSchedulingIsAllocFree) {
  SimNetwork net(bench::make_relays(2, 0), SimNetwork::Options{});
  long counter = 0;
  // Warm the event heap to the same peak occupancy the window will reach
  // (the backing vector grows to the high-water mark once, then never).
  for (int i = 0; i < 1024; ++i) {
    net.schedule_after(i + 1, [&counter] { ++counter; });
  }
  ASSERT_TRUE(net.run());

  const alloc::Window w;
  for (int i = 0; i < 1024; ++i) {
    net.schedule_after(i + 1, [&counter] { ++counter; });
  }
  ASSERT_TRUE(net.run());
  EXPECT_EQ(w.allocations(), 0u)
      << "small client closures must stay inside InlineFn's buffer";
  EXPECT_EQ(counter, 1024 + 1024);
}

TEST(AllocRegression, TwoBitDisseminationSettlesAllocFree) {
  // The real protocol: after each (unmeasured) client write completes, the
  // residual WRITE-frame gossip drained by settle() must be allocation-free.
  // Warmup/window sizes keep each process's history deque inside its
  // current 16-entry chunk (17 warmup writes -> 18 entries incl. the
  // initial value; +8 window writes -> 26 < 32), so the window sees pure
  // delivery work.
  auto make = [] {
    SimRegisterGroup::Options opt;
    opt.cfg.n = 5;
    opt.cfg.t = 2;
    opt.cfg.writer = 0;
    opt.cfg.initial = Value::from_int64(0);
    opt.algo = Algorithm::kTwoBit;
    return SimRegisterGroup(std::move(opt));
  };
  auto group = make();
  for (int i = 0; i < 17; ++i) {
    group.client().write_sync(Value::from_int64(i));
    group.settle();
    group.client().read_sync(4);
    group.settle();
  }

  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  for (int k = 0; k < 8; ++k) {
    group.client().write_sync(Value::from_int64(1000 + k));
    const auto events_before = group.net().events_executed();
    const alloc::Window w;
    group.settle();
    allocs += w.allocations();
    events += group.net().events_executed() - events_before;
  }
  EXPECT_GT(events, 0u) << "the window must actually deliver frames";
  EXPECT_EQ(allocs, 0u)
      << "two-bit gossip must ride the frame pool without allocating";
}

// ---- the unified client API (PR 4): allocs per OPERATION ---------------------
//
// Same discipline, one level up: a steady-state operation through the
// Ticket convenience API — pooled OpState in, submit, wait, result out —
// must not touch the heap. Windows keep the register's history deque
// inside its current chunk (one entry per write, 16 Values per libstdc++
// chunk): protocol-state growth is the paper's open problem, not client
// overhead, and is measured by bench_local_memory instead.

TEST(AllocRegression, BoundedHistoryWorkloadIsAllocFree) {
  // The bounded-history subsystem end to end: ACK frames, acked-prefix
  // checkpoint advancement, and segment recycling must all ride warmed
  // storage. Stronger than the faithful gates above: the log's footprint is
  // flat by design, so there is no chunk-boundary caveat — every window of
  // the whole workload (ops AND residual gossip) must be exactly zero.
  SimRegisterGroup::Options opt;
  opt.cfg.n = 3;
  opt.cfg.t = 1;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  opt.process_factory = [](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions o;
    o.bounded_history = true;
    o.ack_interval = 1;
    return std::make_unique<TwoBitProcess>(cfg, pid, o);
  };
  SimRegisterGroup group(std::move(opt));
  RegisterClient& client = group.client();

  // Warm: pools, rings, the segment freelist, acked rows, GC counters.
  for (int k = 0; k < 64; ++k) {
    ASSERT_TRUE(client.write_sync(Value::from_int64(k)).status.ok());
    ASSERT_TRUE(client.read_sync((k % 2) + 1).status.ok());
  }
  group.settle();

  std::uint64_t allocs = 0;
  for (int k = 0; k < 32; ++k) {
    const alloc::Window w;
    const OpResult wr = client.write_sync(Value::from_int64(1000 + k));
    const OpResult rd = client.read_sync((k % 2) + 1);
    group.settle();
    EXPECT_TRUE(wr.status.ok());
    EXPECT_TRUE(rd.status.ok());
    allocs += w.allocations();
  }
  const auto& writer = group.net().process_as<TwoBitProcess>(0);
  EXPECT_GT(writer.gc_reclaimed_count(), 0u)
      << "the window must actually exercise GC";
  EXPECT_EQ(allocs, 0u)
      << "bounded-mode steady state must be allocation-free per op";
}

TEST(AllocRegression, SimTicketClosedLoopIsAllocFree) {
  SimRegisterGroup::Options opt;
  opt.cfg.n = 5;
  opt.cfg.t = 2;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  SimRegisterGroup group(std::move(opt));
  RegisterClient& client = group.client();

  // Warm: pool, chains, engine storage, and the history chunk (16 writes
  // -> entries 0..16; the measured 8 writes land at 17..24 < 32).
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(client.write_sync(Value::from_int64(k)).status.ok());
    ASSERT_TRUE(client.read_sync(4).status.ok());
  }
  group.settle();

  const alloc::Window w;
  for (int k = 0; k < 8; ++k) {
    const OpResult wr = client.write_sync(Value::from_int64(100 + k));
    const OpResult rd = client.read_sync((k % 4) + 1);
    EXPECT_TRUE(wr.status.ok());
    EXPECT_TRUE(rd.status.ok());
  }
  group.settle();
  EXPECT_EQ(w.allocations(), 0u)
      << "a sim ticket round-trip must not touch the heap";
}

TEST(AllocRegression, FastReadTicketClosedLoopsAreAllocFree) {
  // The fast-path read engines (src/fastread/) own the same contract, with
  // no history-chunk caveat: both keep O(1) register state (one timestamp +
  // one value; the time-efficient engine adds a fixed know_[n] vector), so
  // once the relay slots / echo scratches and the reused Value capacities
  // are warm, EVERY window is exactly zero — including Oh-RAM windows that
  // take the write-back fallback.
  for (const auto algo : fastread_algorithms()) {
    SimRegisterGroup::Options opt;
    opt.cfg.n = 5;
    opt.cfg.t = 2;
    opt.cfg.writer = 0;
    opt.cfg.initial = Value::from_int64(0);
    opt.algo = algo;
    SimRegisterGroup group(std::move(opt));
    RegisterClient& client = group.client();

    for (int k = 0; k < 16; ++k) {
      ASSERT_TRUE(client.write_sync(Value::from_int64(k)).status.ok());
      ASSERT_TRUE(client.read_sync(4).status.ok());
    }
    group.settle();

    const alloc::Window w;
    for (int k = 0; k < 8; ++k) {
      const OpResult wr = client.write_sync(Value::from_int64(100 + k));
      const OpResult rd = client.read_sync((k % 4) + 1);
      EXPECT_TRUE(wr.status.ok());
      EXPECT_TRUE(rd.status.ok());
    }
    group.settle();
    EXPECT_EQ(w.allocations(), 0u)
        << algorithm_name(algo)
        << " ticket round-trips must not touch the heap";
  }
}

TEST(AllocRegression, ThreadedTicketClosedLoopIsAllocFree) {
  ThreadNetwork::Options opt;
  opt.cfg.n = 3;
  opt.cfg.t = 1;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  opt.max_delay_us = 0;
  ThreadNetwork net(opt);
  net.start();
  RegisterClient& client = net.client();

  // Warm 64 writes (entries 0..64; chunk boundary at 64 lands in warmup)
  // plus reads for every pool/ring/heap high-water mark.
  for (int k = 0; k < 64; ++k) {
    ASSERT_TRUE(client.write_sync(Value::from_int64(k)).status.ok());
    ASSERT_TRUE(client.read_sync(1).status.ok());
    ASSERT_TRUE(client.read_sync(2).status.ok());
  }

  // Concurrent pools reach their high-water marks asynchronously, so one
  // window can still catch a late growth step; the MINIMUM over a few
  // windows is the steady state (a per-op allocation would show up in
  // every window). Each window holds 8 writes: boundary windows (history
  // entries crossing a multiple of 16) absorb the chunk allocation, the
  // clean windows must be exactly zero.
  std::uint64_t min_allocs = ~0ull;
  for (int window = 0; window < 4; ++window) {
    const alloc::Window w;
    for (int k = 0; k < 8; ++k) {
      const OpResult wr = client.write_sync(Value::from_int64(1000 + k));
      const OpResult r1 = client.read_sync(1);
      const OpResult r2 = client.read_sync(2);
      EXPECT_TRUE(wr.status.ok());
      EXPECT_TRUE(r1.status.ok());
      EXPECT_TRUE(r2.status.ok());
    }
    min_allocs = std::min(min_allocs, w.allocations());
  }
  EXPECT_EQ(min_allocs, 0u)
      << "a threaded ticket round-trip must not touch the heap";
}

TEST(AllocRegression, SocketTicketClosedLoopStaysWithinOneAllocPerOp) {
  // The socket runtime's ticket loop over real loopback TCP: commands ride
  // recycled vectors onto the loop thread, frames drain through the
  // consumed-offset ring, completions resolve into pooled OpStates. Same
  // min-of-windows discipline as the threaded gate (n loop threads reach
  // their buffer high-water marks asynchronously; a true per-op allocation
  // would count in EVERY window), same 1-write-in-4 mix so windows stay
  // inside the warmed history chunk. Gate (ISSUE 5): <= 1 alloc/op.
  SocketNetwork::Options opt;
  opt.cfg.n = 3;
  opt.cfg.t = 1;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  SocketNetwork net(std::move(opt));
  net.start();
  RegisterClient& client = net.client();

  auto one_op = [&](std::uint32_t k) {
    if (k % 4 == 0) {
      ASSERT_TRUE(client.write_sync(Value::from_int64(k)).status.ok());
    } else {
      ASSERT_TRUE(client.read_sync((k % 2) + 1).status.ok());
    }
  };
  for (std::uint32_t k = 0; k < 256; ++k) one_op(k);  // warm rings/pools

  constexpr std::uint32_t kWindowOps = 32;
  std::uint64_t min_allocs = ~0ull;
  for (int window = 0; window < 4; ++window) {
    const alloc::Window w;
    for (std::uint32_t k = 0; k < kWindowOps; ++k) one_op(k);
    min_allocs = std::min(min_allocs, w.allocations());
  }
  net.stop();
  const double per_op =
      static_cast<double>(min_allocs) / static_cast<double>(kWindowOps);
  EXPECT_LE(per_op, 1.0)
      << "socket ticket ops must stay within one allocation per op ("
      << min_allocs << " allocs over " << kWindowOps << " ops)";
}

TEST(AllocRegression, ShardedKvClientStaysWithinOneAllocPerOp) {
  // Pipelined waves through the sharded store's pooled client. min_batch
  // == max_batch == the wave size pins every batching window to exactly
  // one wave, making the per-window planning work — and so the allocation
  // count — deterministic. Acceptance (ISSUE 4): <= 1 alloc/op; the
  // recycled plan/window storage actually gets this near zero.
  constexpr std::uint32_t kWaveOps = 64;
  constexpr std::uint32_t kWaves = 8;
  ShardedKvStore::Options opt;
  opt.shards = 1;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 16;
  opt.min_batch = kWaveOps;
  opt.max_batch = kWaveOps;
  opt.min_batch_wait = std::chrono::microseconds(200'000);
  ShardedKvStore store(std::move(opt));
  KvClient& client = store.client();

  std::vector<std::string> keys;
  for (int k = 0; k < 8; ++k) keys.push_back("key-" + std::to_string(k));
  std::vector<Ticket> tickets(kWaveOps);
  auto run_wave = [&](std::uint32_t wave) {
    for (std::uint32_t k = 0; k < kWaveOps; ++k) {
      const std::string& key = keys[(wave + k) % keys.size()];
      tickets[k] = (k % 4 == 0)
                       ? client.put(key, Value::from_int64(wave + k))
                       : client.get(key);
    }
    for (std::uint32_t k = 0; k < kWaveOps; ++k) {
      EXPECT_TRUE(client.wait(tickets[k]).status.ok());
    }
  };

  for (std::uint32_t wave = 0; wave < 8; ++wave) run_wave(wave);  // warm

  const alloc::Window w;
  for (std::uint32_t wave = 0; wave < kWaves; ++wave) run_wave(wave);
  store.drain();
  const double per_op =
      static_cast<double>(w.allocations()) /
      static_cast<double>(kWaves * kWaveOps);
  EXPECT_LE(per_op, 1.0)
      << "sharded KvClient ops must stay within one allocation per op ("
      << w.allocations() << " allocs over " << kWaves * kWaveOps << " ops)";
}

}  // namespace
}  // namespace tbr
