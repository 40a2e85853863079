// Full-stack composition: the layers are independent and stack freely.
//
//   ShardedKvStore -> MuxProcess -> ReliableLinkProcess -> TwoBitProcess
//                                -> lossy non-FIFO simulated channels
//
// Each layer was verified in isolation (kvstore_test, sharded_store_test,
// link_test, twobit_*); this suite checks the *product*: multiplexed
// registers that stay correct and live while the network drops 10% of all
// frames — with ABD underneath too, since every layer is
// algorithm-agnostic — and the whole store -> mux -> link -> register
// stack driven end to end.
#include <gtest/gtest.h>

#include <set>

#include "abd/specs.hpp"
#include "core/twobit_process.hpp"
#include "kvstore/sharded_store.hpp"
#include "link/reliable_link.hpp"
#include "workload/algorithms.hpp"
#include "workload/sim_workload.hpp"

namespace tbr {
namespace {

RegisterFactory linked_factory(Algorithm algo) {
  return [algo](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<ReliableLinkProcess>(
        cfg, pid, make_register_process(algo, cfg, pid));
  };
}

/// One n-node group of MuxProcesses on a bare simulator; slot s is
/// written at node s mod n. Operations run one at a time to completion.
struct MuxRig {
  std::uint32_t n;
  std::unique_ptr<SimNetwork> net;

  MuxRig(std::uint32_t nodes, std::uint32_t t, std::uint32_t slots,
         const RegisterFactory& factory, SimNetwork::Options options)
      : n(nodes),
        net(std::make_unique<SimNetwork>(
            make_mux_group(nodes, t, slots, Value(), factory),
            std::move(options))) {}

  MuxProcess& mux(ProcessId pid) { return net->process_as<MuxProcess>(pid); }

  bool write(std::uint32_t slot, Value v) {
    const ProcessId home = slot % n;
    bool done = false;
    mux(home).start_write(net->context(home), slot, std::move(v),
                          [&done] { done = true; });
    return net->run_until([&done] { return done; });
  }

  Value read(std::uint32_t slot, ProcessId reader) {
    bool done = false;
    Value out;
    mux(reader).start_read(net->context(reader), slot,
                           [&](const Value& v, SeqNo) {
                             out = v;
                             done = true;
                           });
    EXPECT_TRUE(net->run_until([&done] { return done; }));
    return out;
  }
};

class StackedStore : public testing::TestWithParam<Algorithm> {};

TEST_P(StackedStore, KvOverLinkOverLossyChannels) {
  SimNetwork::Options opt;
  opt.seed = 31;
  opt.loss_rate = 0.10;  // the link layer underneath must absorb this
  MuxRig rig(/*nodes=*/5, /*t=*/2, /*slots=*/8, linked_factory(GetParam()),
             std::move(opt));

  for (int k = 1; k <= 6; ++k) {
    ASSERT_TRUE(rig.write(static_cast<std::uint32_t>(k % 3),
                          Value::from_int64(k)));
  }
  EXPECT_EQ(rig.read(0, 1).to_int64(), 6);
  EXPECT_EQ(rig.read(1, 2).to_int64(), 4);
  EXPECT_EQ(rig.read(2, 3).to_int64(), 5);
  EXPECT_GT(rig.net->frames_lost(), 0u)
      << "the sweep must actually have exercised loss";
}

std::string algo_case_name(const testing::TestParamInfo<Algorithm>& param) {
  std::string name = algorithm_name(param.param);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Algorithms, StackedStore,
                         testing::Values(Algorithm::kTwoBit,
                                         Algorithm::kAbdUnbounded),
                         algo_case_name);

TEST(StackComposition, RegisterOverLinkUnderLossBothAlgorithms) {
  // register -> link -> 10% loss, for twobit AND abd-unbounded: the link
  // is protocol-agnostic and both protocols stay atomic and live.
  for (const Algorithm algo :
       {Algorithm::kTwoBit, Algorithm::kAbdUnbounded}) {
    SimWorkloadOptions opt;
    opt.cfg.n = 5;
    opt.cfg.t = 2;
    opt.cfg.writer = 0;
    opt.cfg.initial = Value::from_int64(0);
    opt.seed = 12345;
    opt.ops_per_process = 8;
    opt.loss_rate = 0.10;
    opt.process_factory = [algo](const GroupConfig& cfg, ProcessId pid) {
      return std::make_unique<ReliableLinkProcess>(
          cfg, pid, make_register_process(algo, cfg, pid));
    };
    const auto result = run_sim_workload(opt);
    ASSERT_TRUE(result.drained) << algorithm_name(algo);
    const auto check = result.check_atomicity(opt.cfg.initial);
    EXPECT_TRUE(check.ok) << algorithm_name(algo) << ": " << check.error;
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct)
        << algorithm_name(algo);
  }
}

TEST(StackComposition, DoubleDecorationLinkUnderMux) {
  // The store over a mux of link-wrapped registers on ONE network:
  // protocol frames travel as link payloads inside mux envelopes; two
  // layers of wrapping must still deliver exactly-once per slot stream.
  ShardedKvStore::Options opt;
  opt.shards = 1;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 4;
  opt.register_factory = linked_factory(Algorithm::kTwoBit);
  ShardedKvStore store(std::move(opt));

  // Four keys on four distinct registers, so every version counts one
  // key's writes only.
  std::vector<std::string> keys;
  std::set<std::uint32_t> slots;
  for (int i = 0; keys.size() < 4; ++i) {
    std::string key = "key" + std::to_string(i);
    if (slots.insert(store.router().slot_of(key)).second) {
      keys.push_back(std::move(key));
    }
  }
  for (int round = 1; round <= 5; ++round) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(store.client()
                      .put_sync(keys[k], Value::from_int64(round * 10 + k))
                      .status.ok());
    }
  }
  for (int k = 0; k < 4; ++k) {
    const auto got = store.client().get_sync(keys[k], 1);
    EXPECT_EQ(got.value.to_int64(), 50 + k);
    EXPECT_EQ(got.version, 5);
  }
}

}  // namespace
}  // namespace tbr
