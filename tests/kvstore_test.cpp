// KV-store mux layer (src/kvstore/mux_process.*) on a bare simulator,
// below the ShardedKvStore facade: deterministic batching semantics
// (read coalescing, last-write-wins absorption, chain order), memory per
// written slot, and per-slot linearizability under interleaved traffic.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checker/swmr_checker.hpp"
#include "kvstore/mux_process.hpp"
#include "sim/delay_model.hpp"
#include "sim/sim_network.hpp"

namespace tbr {
namespace {

// ---- deterministic batching semantics (direct MuxProcess batches) -----------

/// One n-node group of MuxProcesses (initial value "v0") on a bare
/// simulator with ConstantDelay(1000) channels; slot s is written at
/// node s mod n.
struct BatchRig {
  std::uint32_t n;
  std::unique_ptr<SimNetwork> net;
  BatchStats stats;

  explicit BatchRig(std::uint32_t nodes = 3, std::uint32_t t = 1,
                    std::uint32_t slots = 4, std::uint64_t seed = 1)
      : n(nodes) {
    SimNetwork::Options net_opt;
    net_opt.seed = seed;
    net_opt.delay = make_constant_delay(1000);
    net = std::make_unique<SimNetwork>(
        make_mux_group(nodes, t, slots, Value::from_string("v0")),
        std::move(net_opt));
  }

  MuxProcess& mux(ProcessId pid) { return net->process_as<MuxProcess>(pid); }

  /// Protocol state across every node and slot.
  std::uint64_t memory_bytes() {
    std::uint64_t bytes = 0;
    for (ProcessId pid = 0; pid < n; ++pid) {
      bytes += mux(pid).local_memory_bytes();
    }
    return bytes;
  }

  /// Run one batch at `node` to completion; returns false on stall.
  bool run(ProcessId node, std::vector<MuxProcess::BatchOp> ops,
           bool coalesce) {
    bool done = false;
    mux(node).start_batch(net->context(node), std::move(ops), coalesce,
                          [&done] { done = true; }, &stats);
    return net->run_until([&done] { return done; });
  }
};

TEST(MuxBatch, ConsecutiveReadsShareOneProtocolRound) {
  BatchRig rig;
  std::vector<MuxProcess::BatchOp> ops;
  std::vector<std::pair<std::string, SeqNo>> results;
  for (int k = 0; k < 5; ++k) {
    MuxProcess::BatchOp op;
    op.slot = 1;
    op.read_done = [&results](const Value& v, SeqNo index) {
      results.emplace_back(v.to_string(), index);
    };
    ops.push_back(std::move(op));
  }
  ASSERT_TRUE(rig.run(2, std::move(ops), true));
  ASSERT_EQ(results.size(), 5u);
  for (const auto& [value, index] : results) {
    EXPECT_EQ(value, "v0");
    EXPECT_EQ(index, 0);
  }
  EXPECT_EQ(rig.stats.protocol_reads, 1u);
  EXPECT_EQ(rig.stats.coalesced_reads, 4u);
  // One two-bit read round: 2(n-1) frames, nothing per extra client.
  EXPECT_EQ(rig.net->stats().total_sent(), 2u * (rig.n - 1));
}

TEST(MuxBatch, WriteRunCollapsesLastWriteWins) {
  BatchRig rig;
  const std::uint32_t slot = 0;  // homed at p0
  std::vector<MuxProcess::BatchOp> ops;
  std::vector<std::pair<SeqNo, bool>> outcomes;
  for (int k = 1; k <= 3; ++k) {
    MuxProcess::BatchOp op;
    op.slot = slot;
    op.is_write = true;
    op.value = Value::from_int64(k * 10);
    op.write_done = [&outcomes](SeqNo version, bool absorbed) {
      outcomes.emplace_back(version, absorbed);
    };
    ops.push_back(std::move(op));
  }
  ASSERT_TRUE(rig.run(0, std::move(ops), true));
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0], (std::pair<SeqNo, bool>{1, true}));
  EXPECT_EQ(outcomes[1], (std::pair<SeqNo, bool>{1, true}));
  EXPECT_EQ(outcomes[2], (std::pair<SeqNo, bool>{1, false}));
  EXPECT_EQ(rig.stats.protocol_writes, 1u);
  EXPECT_EQ(rig.stats.absorbed_writes, 2u);

  // Only the surviving value ever reached the register.
  Value read_value;
  SeqNo read_index = -1;
  std::vector<MuxProcess::BatchOp> reads(1);
  reads[0].slot = slot;
  reads[0].read_done = [&](const Value& v, SeqNo index) {
    read_value = v;
    read_index = index;
  };
  ASSERT_TRUE(rig.run(1, std::move(reads), true));
  EXPECT_EQ(read_value.to_int64(), 30);
  EXPECT_EQ(read_index, 1);
}

TEST(MuxBatch, ReadBetweenWritesSplitsTheRun) {
  BatchRig rig;
  const std::uint32_t slot = 0;
  std::vector<MuxProcess::BatchOp> ops(3);
  SeqNo mid_read_index = -1;
  std::int64_t mid_read_value = 0;
  ops[0].slot = slot;
  ops[0].is_write = true;
  ops[0].value = Value::from_int64(1);
  ops[1].slot = slot;
  ops[1].read_done = [&](const Value& v, SeqNo index) {
    mid_read_value = v.to_int64();
    mid_read_index = index;
  };
  ops[2].slot = slot;
  ops[2].is_write = true;
  ops[2].value = Value::from_int64(2);
  ASSERT_TRUE(rig.run(0, std::move(ops), true));
  // Arrival order is preserved: the read sits between the writes, so the
  // writes cannot coalesce across it and the read sees exactly write 1.
  EXPECT_EQ(rig.stats.protocol_writes, 2u);
  EXPECT_EQ(rig.stats.absorbed_writes, 0u);
  EXPECT_EQ(mid_read_value, 1);
  EXPECT_EQ(mid_read_index, 1);
}

TEST(MuxBatch, CoalesceOffPipelinesEveryWrite) {
  BatchRig rig;
  std::vector<MuxProcess::BatchOp> ops;
  std::vector<SeqNo> versions;
  for (int k = 1; k <= 4; ++k) {
    MuxProcess::BatchOp op;
    op.slot = 0;
    op.is_write = true;
    op.value = Value::from_int64(k);
    op.write_done = [&versions](SeqNo version, bool absorbed) {
      EXPECT_FALSE(absorbed);
      versions.push_back(version);
    };
    ops.push_back(std::move(op));
  }
  ASSERT_TRUE(rig.run(0, std::move(ops), false));
  EXPECT_EQ(versions, (std::vector<SeqNo>{1, 2, 3, 4}));
  EXPECT_EQ(rig.stats.protocol_writes, 4u);
  EXPECT_EQ(rig.stats.absorbed_writes, 0u);
}

TEST(MuxBatch, ChainsForDistinctSlotsInterleave) {
  BatchRig rig;
  // Writes to slot 0 (home p0) and reads of slot 3 (home p0 as 3 % 3)
  // issued at p0 in one batch: distinct registers, both complete.
  std::vector<MuxProcess::BatchOp> ops(4);
  int reads_done = 0;
  ops[0].slot = 0;
  ops[0].is_write = true;
  ops[0].value = Value::from_int64(7);
  ops[1].slot = 3;
  ops[1].read_done = [&](const Value&, SeqNo) { ++reads_done; };
  ops[2].slot = 0;
  ops[2].is_write = true;
  ops[2].value = Value::from_int64(8);
  ops[3].slot = 3;
  ops[3].read_done = [&](const Value&, SeqNo) { ++reads_done; };
  ASSERT_TRUE(rig.run(0, std::move(ops), true));
  EXPECT_EQ(reads_done, 2);
  // Slot 0's two writes were adjacent in ITS chain (the slot-3 reads live
  // in a different chain), so they coalesced.
  EXPECT_EQ(rig.stats.protocol_writes, 1u);
  EXPECT_EQ(rig.stats.absorbed_writes, 1u);
  EXPECT_EQ(rig.stats.coalesced_reads, 1u);
}

// ---- the mux layer: memory and per-slot atomicity ---------------------------

TEST(MuxLayer, MemoryGrowsWithDistinctKeysWritten) {
  BatchRig rig(/*nodes=*/5, /*t=*/2, /*slots=*/32);
  ASSERT_TRUE(rig.net->run());
  const auto before = rig.memory_bytes();
  for (std::uint32_t slot = 0; slot < 32; ++slot) {
    std::vector<MuxProcess::BatchOp> ops(1);
    ops[0].slot = slot;
    ops[0].is_write = true;
    ops[0].value = Value::filler(64);
    ASSERT_TRUE(rig.run(slot % rig.n, std::move(ops), true));
  }
  ASSERT_TRUE(rig.net->run());
  EXPECT_GT(rig.memory_bytes(), before)
      << "each slot's register history retains its writes";
}

// Per-key linearizability at the mux: a key's history is its slot's
// register history, so interleave overlapping ops on several slots, record
// one history per slot, and check each independently.
TEST(MuxLayer, PerKeyHistoriesLinearizeUnderInterleaving) {
  BatchRig rig(/*nodes=*/5, /*t=*/2, /*slots=*/4, /*seed=*/99);
  SimNetwork& net = *rig.net;

  struct SlotPlan {
    std::uint32_t slot;
    ProcessId home;
    SeqNo next_version = 0;
  };
  // Three distinct slots: each has its own register and single writer,
  // which the independent write loops below require.
  std::vector<SlotPlan> plans;
  for (const std::uint32_t slot : {1u, 2u, 3u}) {
    plans.push_back(SlotPlan{slot, slot % rig.n});
  }

  std::map<std::uint32_t, HistoryLog> logs;  // slot -> history
  // Writer loops per slot and reader loops per (slot, replica) — all
  // async, all overlapping in simulated time.
  std::function<void(std::size_t, int)> issue_write =
      [&](std::size_t idx, int round) {
        if (round > 6) return;
        SlotPlan& plan = plans[idx];
        const SeqNo version = ++plan.next_version;
        Value v = Value::from_int64(round * 100 + static_cast<int>(idx));
        const auto id =
            logs[plan.slot].begin_write(plan.home, net.now(), version, v);
        rig.mux(plan.home).start_write(
            net.context(plan.home), plan.slot, std::move(v),
            [&, idx, round, id] {
              logs[plans[idx].slot].end_write(id, net.now());
              issue_write(idx, round + 1);
            });
      };
  std::function<void(std::size_t, ProcessId, int)> issue_read =
      [&](std::size_t idx, ProcessId reader, int round) {
        if (round > 6) return;
        const SlotPlan& plan = plans[idx];
        const auto id = logs[plan.slot].begin_read(reader, net.now());
        rig.mux(reader).start_read(
            net.context(reader), plan.slot,
            [&, idx, reader, round, id](const Value& v, SeqNo index) {
              logs[plans[idx].slot].end_read(id, net.now(), v, index);
              issue_read(idx, reader, round + 1);
            });
      };

  for (std::size_t k = 0; k < plans.size(); ++k) {
    net.schedule_at(static_cast<Tick>(k) * 37 + 1,
                    [&, k] { issue_write(k, 1); });
    for (ProcessId reader = 1; reader < 4; ++reader) {
      // The home node's register instance is busy with the write loop
      // (one op per process per register — the model's sequential client).
      if (reader == plans[k].home) continue;
      net.schedule_at(static_cast<Tick>(k * 53 + reader * 11 + 2),
                      [&, k, reader] { issue_read(k, reader, 1); });
    }
  }
  ASSERT_TRUE(net.run());

  ASSERT_EQ(logs.size(), plans.size());
  for (auto& [slot, log] : logs) {
    const auto check = SwmrChecker::check(log.ops(), Value::from_string("v0"));
    EXPECT_TRUE(check.ok) << "slot " << slot << ": " << check.error;
    EXPECT_GT(log.completed_count(), 0u);
  }
}

}  // namespace
}  // namespace tbr
