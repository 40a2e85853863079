// The fast-path read engines (src/fastread/): codec roundtrips, the
// virtual-time latency claims that justify their existence (3Δ / 2Δ reads
// vs. the two-bit engine's 4Δ), and the Oh-RAM concurrent-write fallback.
#include <gtest/gtest.h>

#include "fastread/ohram_process.hpp"
#include "fastread/time_efficient_process.hpp"
#include "kvstore/sharded_store.hpp"
#include "workload/sim_register_group.hpp"
#include "workload/sim_workload.hpp"

namespace tbr {
namespace {

constexpr Tick kDelta = SimRegisterGroup::kDefaultDelta;

// ---- codec roundtrips -------------------------------------------------------

Message roundtrip(const Codec& codec, const Message& msg) {
  std::string bytes;
  codec.encode_into(msg, bytes);
  Message out;
  codec.decode_into(bytes, out);
  return out;
}

TEST(FastReadCodec, OhRamRoundtripsEveryType) {
  const auto& codec = ohram_codec();
  for (const auto type :
       {OhRamType::kWrite, OhRamType::kWriteAck, OhRamType::kRead,
        OhRamType::kRelay, OhRamType::kReadAck, OhRamType::kWriteBack,
        OhRamType::kWriteBackAck}) {
    Message msg;
    msg.type = static_cast<std::uint8_t>(type);
    const bool tagged = type != OhRamType::kWrite && type != OhRamType::kWriteAck;
    const bool state = type != OhRamType::kWriteAck &&
                       type != OhRamType::kWriteBackAck;
    if (tagged) msg.aux = (77 << 8) | 3;  // tag 77, reader 3
    if (state || type == OhRamType::kWriteAck) msg.seq = 41;
    if (state) {
      msg.has_value = true;
      msg.value = Value::from_string("payload");
    }
    const Message out = roundtrip(codec, msg);
    EXPECT_EQ(out.type, msg.type) << codec.type_name(msg.type);
    EXPECT_EQ(out.seq, msg.seq) << codec.type_name(msg.type);
    EXPECT_EQ(out.aux, msg.aux) << codec.type_name(msg.type);
    EXPECT_EQ(out.has_value, msg.has_value) << codec.type_name(msg.type);
    EXPECT_EQ(out.value, msg.value) << codec.type_name(msg.type);
    // Decode fills the accounting; the type tag costs 3 bits.
    EXPECT_GE(out.wire.control_bits, 3u);
  }
}

TEST(FastReadCodec, TimeEfficientRoundtripsEveryType) {
  const auto& codec = time_efficient_codec();
  for (const auto type :
       {TimeEffType::kEcho, TimeEffType::kRead, TimeEffType::kState}) {
    Message msg;
    msg.type = static_cast<std::uint8_t>(type);
    if (type != TimeEffType::kEcho) msg.aux = 19;
    if (type != TimeEffType::kRead) {
      msg.seq = 7;
      msg.has_value = true;
      msg.value = Value::from_int64(123);
    }
    const Message out = roundtrip(codec, msg);
    EXPECT_EQ(out.type, msg.type) << codec.type_name(msg.type);
    EXPECT_EQ(out.seq, msg.seq) << codec.type_name(msg.type);
    EXPECT_EQ(out.aux, msg.aux) << codec.type_name(msg.type);
    EXPECT_EQ(out.has_value, msg.has_value) << codec.type_name(msg.type);
    EXPECT_EQ(out.value, msg.value) << codec.type_name(msg.type);
    EXPECT_GE(out.wire.control_bits, 2u + 64u);
  }
}

TEST(FastReadCodec, RejectsTrailingBytes) {
  std::string bytes;
  Message msg;
  msg.type = static_cast<std::uint8_t>(TimeEffType::kRead);
  msg.aux = 5;
  time_efficient_codec().encode_into(msg, bytes);
  bytes.push_back('x');
  Message out;
  EXPECT_ANY_THROW(time_efficient_codec().decode_into(bytes, out));
}

// ---- registry ---------------------------------------------------------------

TEST(FastReadRegistry, NamesAndFactories) {
  EXPECT_EQ(algorithm_name(Algorithm::kOhRam), "ohram");
  EXPECT_EQ(algorithm_name(Algorithm::kTimeEfficient), "timeeff");
  // Table 1 sweeps must stay exactly the paper's four columns.
  EXPECT_EQ(all_algorithms().size(), 4u);
  for (const auto algo : all_algorithms()) {
    EXPECT_NE(algo, Algorithm::kOhRam);
    EXPECT_NE(algo, Algorithm::kTimeEfficient);
  }
  EXPECT_EQ(fastread_algorithms().size(), 2u);

  GroupConfig cfg;
  cfg.n = 3;
  cfg.t = 1;
  cfg.initial = Value::from_int64(0);
  auto ohram = make_register_process(Algorithm::kOhRam, cfg, 1);
  EXPECT_NE(dynamic_cast<OhRamProcess*>(ohram.get()), nullptr);
  auto timeeff = make_register_process(Algorithm::kTimeEfficient, cfg, 1);
  EXPECT_NE(dynamic_cast<TimeEfficientProcess*>(timeeff.get()), nullptr);
}

// ---- virtual-time latency ---------------------------------------------------

SimRegisterGroup make_group(Algorithm algo, std::uint32_t n, std::uint32_t t) {
  SimRegisterGroup::Options opt;
  opt.cfg.n = n;
  opt.cfg.t = t;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = algo;
  return SimRegisterGroup(std::move(opt));
}

Tick timed_write(SimRegisterGroup& group, std::int64_t v) {
  const Tick start = group.net().now();
  Tick end = -1;
  group.client().write(Value::from_int64(v),
                       [&](const OpResult&) { end = group.net().now(); });
  group.net().run();
  EXPECT_GE(end, 0);
  return end - start;
}

Tick timed_read(SimRegisterGroup& group, ProcessId reader,
                std::int64_t expect_value, SeqNo expect_index) {
  const Tick start = group.net().now();
  Tick end = -1;
  group.client().read(reader, [&](const OpResult& r) {
    end = group.net().now();
    EXPECT_EQ(r.value.to_int64(), expect_value);
    EXPECT_EQ(r.version, expect_index);
  });
  group.net().run();
  EXPECT_GE(end, 0);
  return end - start;
}

// Constant delay Δ, no concurrency: the headline numbers. The Oh-RAM read
// costs 3Δ (READ at Δ, relay quorums at 2Δ, acks at 3Δ); the time-efficient
// read costs one round trip (2Δ); writes cost 2Δ in both.
TEST(FastReadLatency, OhRamSequentialReadIsThreeDelta) {
  auto group = make_group(Algorithm::kOhRam, 5, 2);
  EXPECT_EQ(timed_write(group, 7), 2 * kDelta);
  group.settle();
  EXPECT_EQ(timed_read(group, 3, 7, 1), 3 * kDelta);
  group.settle();
  EXPECT_EQ(timed_read(group, 4, 7, 1), 3 * kDelta);
  // Both reads took the 1.5-round path: nothing was concurrent.
  const auto& reader = dynamic_cast<const OhRamProcess&>(group.process(3));
  EXPECT_EQ(reader.fast_reads(), 1u);
  EXPECT_EQ(reader.fallback_reads(), 0u);
}

TEST(FastReadLatency, TimeEfficientSequentialReadIsOneRoundTrip) {
  auto group = make_group(Algorithm::kTimeEfficient, 5, 2);
  EXPECT_EQ(timed_write(group, 9), 2 * kDelta);
  group.settle();
  EXPECT_EQ(timed_read(group, 2, 9, 1), 2 * kDelta);
  group.settle();
  EXPECT_EQ(timed_read(group, 1, 9, 1), 2 * kDelta);
}

// ---- Oh-RAM fallback --------------------------------------------------------

// Under randomized delays with reads racing writes, some relay quorums see
// the old timestamp and some the new: acks disagree and the reader falls
// back to the write-back round. The run must stay atomic either way.
TEST(FastReadFallback, OhRamTakesWriteBackPathUnderContention) {
  SimRegisterGroup::Options opt;
  opt.cfg.n = 5;
  opt.cfg.t = 2;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kOhRam;
  opt.seed = 11;
  opt.delay = make_uniform_delay(1, 1500);
  SimRegisterGroup group(std::move(opt));

  RegisterClient& client = group.client();
  int writes_done = 0;
  OpCallback next_write = [&](const OpResult&) {
    ++writes_done;
    if (writes_done < 20) {
      client.write(Value::from_int64(writes_done + 1), next_write);
    }
  };
  client.write(Value::from_int64(1), next_write);

  int reads_done = 0;
  std::vector<OpCallback> read_cbs(5);
  for (ProcessId reader = 1; reader <= 3; ++reader) {
    read_cbs[reader] = [&, reader](const OpResult& r) {
      // The register holds from_int64(index) after write #index.
      EXPECT_EQ(r.value.to_int64(), r.version);
      ++reads_done;
      if (reads_done < 60) client.read(reader, read_cbs[reader]);
    };
    client.read(reader, read_cbs[reader]);
  }
  group.net().run();

  std::uint64_t fast = 0;
  std::uint64_t fallback = 0;
  for (ProcessId pid = 0; pid < 5; ++pid) {
    const auto& proc = dynamic_cast<const OhRamProcess&>(group.process(pid));
    fast += proc.fast_reads();
    fallback += proc.fallback_reads();
  }
  EXPECT_EQ(writes_done, 20);
  EXPECT_GE(reads_done, 60);
  // Both completion paths must actually run in this schedule.
  EXPECT_GT(fast, 0u);
  EXPECT_GT(fallback, 0u);
}

// ---- the KV engine knob -----------------------------------------------------

// Options::engine routes every slot of the store through a fast-path read
// register instead of the two-bit default; per-key semantics are unchanged.
TEST(FastReadKv, ShardedStoreEngineKnobRoundtrips) {
  for (const auto algo : fastread_algorithms()) {
    ShardedKvStore::Options opt;
    opt.shards = 2;
    opt.n = 3;
    opt.t = 1;
    opt.slots_per_shard = 4;
    opt.engine = algo;
    opt.initial = Value::from_int64(0);
    ShardedKvStore store(std::move(opt));
    KvClient& client = store.client();
    // Before any put, every key reads the initial value at version 0.
    const OpResult miss = client.get_sync("never-written");
    ASSERT_TRUE(miss.status.ok()) << algorithm_name(algo);
    EXPECT_EQ(miss.version, 0) << algorithm_name(algo);
    EXPECT_EQ(miss.value.to_int64(), 0) << algorithm_name(algo);
    // Read each key back right after its put: keys colliding onto one
    // slot share a register, so cross-key ordering is not per-key.
    for (int k = 0; k < 8; ++k) {
      const std::string key = "key-" + std::to_string(k);
      ASSERT_TRUE(client.put_sync(key, Value::from_int64(k)).status.ok())
          << algorithm_name(algo);
      const OpResult got = client.get_sync(key);
      ASSERT_TRUE(got.status.ok()) << algorithm_name(algo);
      EXPECT_EQ(got.value.to_int64(), k) << algorithm_name(algo);
    }
    store.stop();
  }
}

// ---- workload smoke ---------------------------------------------------------

TEST(FastReadWorkload, BothEnginesDrainAndLinearize) {
  for (const auto algo : fastread_algorithms()) {
    SimWorkloadOptions opt;
    opt.cfg.n = 5;
    opt.cfg.t = 2;
    opt.cfg.writer = 0;
    opt.cfg.initial = Value::from_int64(0);
    opt.algo = algo;
    opt.seed = 21;
    opt.ops_per_process = 12;
    opt.writer_read_fraction = 0.25;
    const auto result = run_sim_workload(opt);
    ASSERT_TRUE(result.drained) << algorithm_name(algo);
    const auto check = result.check_atomicity(opt.cfg.initial);
    EXPECT_TRUE(check.ok) << algorithm_name(algo) << ": " << check.error;
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct)
        << algorithm_name(algo);
  }
}

}  // namespace
}  // namespace tbr
