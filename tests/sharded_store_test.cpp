// Sharded KV engine (src/kvstore): router placement, end-to-end store
// semantics across shard boundaries, crash isolation between shards, and
// client polling. The mux layer below the store is in kvstore_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "core/twobit_codec.hpp"
#include "kvstore/shard_router.hpp"
#include "kvstore/sharded_store.hpp"

namespace tbr {
namespace {

// ---- router ----------------------------------------------------------------

TEST(ShardRouter, PlacementIsStableAndConsistent) {
  ShardRouter router(4, 16, 3);
  for (int k = 0; k < 64; ++k) {
    const std::string key = "key-" + std::to_string(k);
    const auto a = router.place(key);
    const auto b = router.place(key);
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_EQ(a.home, b.home);
    EXPECT_LT(a.shard, 4u);
    EXPECT_LT(a.slot, 16u);
    EXPECT_EQ(a.home, a.slot % 3);
  }

  // Homes spread over the group: 64 keys touch at least 4 of 5 replicas.
  ShardRouter group(1, 16, 5);
  std::set<ProcessId> homes;
  for (int k = 0; k < 64; ++k) {
    homes.insert(group.home_node("key-" + std::to_string(k)));
  }
  EXPECT_GE(homes.size(), 4u) << "64 keys should touch most homes";
}

// Regression: raw FNV-1a's high half is nearly constant for short similar
// keys — before the avalanche finalizer, "key-0".."key-255" left entire
// shards empty (0 of 256 keys on shard 3 of 4).
TEST(ShardRouter, ShortSequentialKeysSpreadOverAllShards) {
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    ShardRouter router(shards, 16, 3);
    std::vector<int> per_shard(shards, 0);
    for (int k = 0; k < 256; ++k) {
      per_shard[router.shard_of("key-" + std::to_string(k))] += 1;
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      // Fair share is 256/shards; require at least a third of it.
      EXPECT_GE(per_shard[s], static_cast<int>(256 / shards / 3))
          << "shard " << s << " of " << shards << " starved";
    }
  }
}

// ---- store end-to-end -------------------------------------------------------

ShardedKvStore::Options small_store(std::uint32_t shards = 4,
                                    std::uint64_t seed = 1) {
  ShardedKvStore::Options opt;
  opt.shards = shards;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 8;
  opt.seed = seed;
  return opt;
}

TEST(ShardedKvStore, PutThenGetAtEveryReplica) {
  ShardedKvStore store(small_store());
  store.client().put_sync("alpha", Value::from_string("1"));
  for (ProcessId pid = 0; pid < store.node_count(); ++pid) {
    const auto got = store.client().get_sync("alpha", pid);
    EXPECT_EQ(got.value.to_string(), "1") << "replica " << pid;
    EXPECT_EQ(got.version, 1);
  }
}

TEST(ShardedKvStore, UnwrittenKeyReturnsInitial) {
  auto opt = small_store();
  opt.initial = Value::from_string("<default>");
  ShardedKvStore store(std::move(opt));
  const auto got = store.client().get_sync("never-written");
  EXPECT_EQ(got.value.to_string(), "<default>");
  EXPECT_EQ(got.version, 0);
}

TEST(ShardedKvStore, SequentialOverwritesBumpVersions) {
  ShardedKvStore store(small_store());
  for (int k = 1; k <= 10; ++k) {
    const auto put = store.client().put_sync("counter", Value::from_int64(k));
    EXPECT_EQ(put.version, k);
    EXPECT_FALSE(put.absorbed) << "awaited puts are never absorbed";
    const auto got = store.client().get_sync("counter");
    EXPECT_EQ(got.value.to_int64(), k);
    EXPECT_EQ(got.version, k);
  }
}

/// Writes to one key never touch another key's register: `b` is picked
/// in a different shard when the store has several, else in a different
/// slot of the single group.
void expect_keys_independent(ShardedKvStore& store) {
  const std::string a = "a-key";
  const auto a_at = store.router().place(a);
  std::string b;
  for (int k = 0; b.empty() && k < 1000; ++k) {
    const std::string candidate = "b-key-" + std::to_string(k);
    const auto at = store.router().place(candidate);
    if (store.shard_count() > 1 ? at.shard != a_at.shard
                                : at.slot != a_at.slot) {
      b = candidate;
    }
  }
  ASSERT_FALSE(b.empty());
  store.client().put_sync(a, Value::from_string("va"));
  store.client().put_sync(b, Value::from_string("vb"));
  store.client().put_sync(a, Value::from_string("va2"));
  EXPECT_EQ(store.client().get_sync(a).value.to_string(), "va2");
  EXPECT_EQ(store.client().get_sync(a).version, 2);
  EXPECT_EQ(store.client().get_sync(b).value.to_string(), "vb");
  EXPECT_EQ(store.client().get_sync(b).version, 1)
      << "b's register never saw a's writes";
}

TEST(ShardedKvStore, KeysInDifferentShardsAreIndependent) {
  ShardedKvStore store(small_store());
  expect_keys_independent(store);
  // One group, two slots: distinct registers sharing one network.
  ShardedKvStore single(small_store(/*shards=*/1));
  expect_keys_independent(single);
}

TEST(ShardedKvStore, AsyncBurstResolvesEverythingLastValueWins) {
  ShardedKvStore store(small_store());
  std::vector<Ticket> puts;
  for (int k = 1; k <= 32; ++k) {
    puts.push_back(store.client().put("hot", Value::from_int64(k)));
  }
  SeqNo max_version = 0;
  for (const Ticket& t : puts) {
    const OpResult done = store.client().wait(t);
    EXPECT_TRUE(done.status.ok()) << done.status.message();
    EXPECT_GE(done.version, 1);
    max_version = std::max(max_version, done.version);
  }
  const auto got = store.client().get_sync("hot");
  // However the burst landed in windows, the LAST queued value survives
  // and the final version is the number of protocol writes issued.
  EXPECT_EQ(got.value.to_int64(), 32);
  EXPECT_EQ(got.version, max_version);
  const auto stats = store.batch_stats();
  EXPECT_EQ(stats.protocol_writes + stats.absorbed_writes, 32u);
}

TEST(ShardedKvStore, CrashedHomeRefusesPutsKeysStayReadable) {
  ShardedKvStore store(small_store());
  store.client().put_sync("victim", Value::from_string("before"));
  const auto at = store.router().place("victim");
  store.crash(at.shard, at.home);
  store.drain();

  EXPECT_EQ(store.client()
                .put_sync("victim", Value::from_string("after"))
                .status.code(),
            StatusCode::kCrashed);
  // Reads are quorum ops at the surviving replicas.
  const ProcessId other = (at.home + 1) % store.node_count();
  EXPECT_EQ(store.client().get_sync("victim", other).value.to_string(), "before");
  // Reading AT the corpse is refused.
  EXPECT_EQ(store.client().get_sync("victim", at.home).status.code(),
            StatusCode::kCrashed);

  // Every other shard never noticed.
  for (int k = 0; k < 200; ++k) {
    const std::string key = "other-" + std::to_string(k);
    if (store.router().shard_of(key) == at.shard) continue;
    store.client().put_sync(key, Value::from_int64(k));
    EXPECT_EQ(store.client().get_sync(key).value.to_int64(), k);
    break;
  }
}

// Over-budget crashes (> t in one shard): the stalled batch fails its ops,
// the shard marks itself dead, and every later op fails fast — the stalled
// registers' one-op-at-a-time guard must never be re-entered (doing so
// would throw on the worker thread and abort the process).
TEST(ShardedKvStore, OverBudgetCrashesFailFastWithoutAborting) {
  ShardedKvStore store(small_store(/*shards=*/1));
  store.client().put_sync("warm", Value::from_int64(1));

  store.crash(0, 1);
  store.crash(0, 2);  // 2 > t = 1: no quorum left
  store.drain();

  // A key homed at the surviving replica is accepted into a batch, which
  // then stalls: the op fails over to the client.
  std::string stalled_key;
  for (int k = 0; stalled_key.empty() && k < 1000; ++k) {
    const std::string key = "k" + std::to_string(k);
    if (store.router().home_node(key) == 0) stalled_key = key;
  }
  ASSERT_FALSE(stalled_key.empty());
  EXPECT_EQ(store.client()
                .put_sync(stalled_key, Value::from_int64(2))
                .status.code(),
            StatusCode::kLivenessLost);

  // From now on the shard refuses everything fast — and the process is
  // still alive to observe it.
  EXPECT_EQ(store.client()
                .put_sync(stalled_key, Value::from_int64(3))
                .status.code(),
            StatusCode::kLivenessLost);
  EXPECT_EQ(store.client().get_sync("warm", 0).status.code(),
            StatusCode::kLivenessLost);
  // A failed completion unblocks the client before the worker publishes
  // its report; drain() waits for the window to finish accounting.
  store.drain();
  EXPECT_TRUE(store.shard_report(0).lost_liveness);
  EXPECT_GE(store.shard_report(0).failed_ops, 3u);
}

TEST(ShardedKvStore, ShardReportsAccumulate) {
  ShardedKvStore store(small_store());
  for (int k = 0; k < 20; ++k) {
    store.client().put_sync("k" + std::to_string(k), Value::from_int64(k));
  }
  store.drain();
  const auto stats = store.batch_stats();
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.client_ops, 20u);
  EXPECT_GT(store.frames_sent(), 0u);
  std::uint64_t shard_ops = 0;
  for (std::uint32_t s = 0; s < store.shard_count(); ++s) {
    const auto report = store.shard_report(s);
    shard_ops += report.batch.client_ops;
    if (report.batch.client_ops == 0) continue;
    // Every mux envelope carries its embedded register frame's control
    // bits (2 for the two-bit algorithm); the slot tag rides as data.
    EXPECT_EQ(report.net.max_control_bits_per_msg(),
              TwoBitCodec::kControlBitsPerMessage)
        << "shard " << s;
  }
  EXPECT_EQ(shard_ops, 20u);
}

// try_result polls without driving anything: a lone put sits below the
// min_batch floor, so its window cannot open until a second op arrives.
TEST(ShardedKvStore, TryResultPollsWithoutBlocking) {
  auto opt = small_store(/*shards=*/1);
  opt.min_batch = 2;
  opt.min_batch_wait = std::chrono::seconds(10);
  ShardedKvStore store(std::move(opt));
  KvClient& client = store.client();

  const Ticket put = client.put("polled", Value::from_int64(1));
  OpResult put_result;
  EXPECT_FALSE(client.try_result(put, put_result))
      << "the window cannot open on one op";

  const Ticket get = client.get("other");
  store.drain();
  OpResult get_result;
  ASSERT_TRUE(client.try_result(put, put_result));
  EXPECT_TRUE(put_result.status.ok()) << put_result.status.message();
  ASSERT_TRUE(client.try_result(get, get_result));
  EXPECT_TRUE(get_result.status.ok()) << get_result.status.message();
}

}  // namespace
}  // namespace tbr
