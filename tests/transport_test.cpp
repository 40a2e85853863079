// Socket runtime (src/transport): the register over real loopback TCP —
// basic semantics via the unified client, all four algorithms on the
// wire, crash behaviour, same-loop inline admission from completion
// callbacks, per-process wire stats, the loop's one flush per dirty
// channel and its bounded spin, untrusted-frame handling, the inbound
// frame ring, concurrent-history atomicity, and composition with the
// reliable-link decorator (timers on a real event loop).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "core/twobit_codec.hpp"
#include "core/twobit_process.hpp"
#include "link/reliable_link.hpp"
#include "net/codec.hpp"
#include "transport/frame_buffer.hpp"
#include "transport/socket_network.hpp"
#include "workload/live_workload.hpp"

namespace tbr {
namespace {

GroupConfig make_cfg(std::uint32_t n, std::uint32_t t) {
  GroupConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

SocketNetwork::Options net_options(Algorithm algo, std::uint32_t n,
                                   std::uint32_t t) {
  SocketNetwork::Options opt;
  opt.cfg = make_cfg(n, t);
  opt.algo = algo;
  return opt;
}

bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(SocketNetworkTest, WriteThenReadEverywhere) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 5, 2));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(77)).status.ok());
  for (ProcessId pid = 0; pid < 5; ++pid) {
    const OpResult out = net.client().read_sync(pid);
    EXPECT_EQ(out.value.to_int64(), 77) << "process " << pid;
    EXPECT_EQ(out.version, 1);
  }
  net.stop();
}

TEST(SocketNetworkTest, SequentialWritesVisibleInOrder) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  for (int k = 1; k <= 20; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
    const OpResult out =
        net.client().read_sync(static_cast<ProcessId>(k % 3));
    EXPECT_EQ(out.value.to_int64(), k);
  }
  net.stop();
}

TEST(SocketNetworkTest, StringValuesSurviveTheWire) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  const std::string payload(4096, 'x');  // bigger than one read chunk slice
  ASSERT_TRUE(
      net.client().write_sync(Value::from_string(payload + "end")).status.ok());
  EXPECT_EQ(net.client().read_sync(2).value.to_string(), payload + "end");
  net.stop();
}

TEST(SocketNetworkTest, TwoBitFramesCostTwoBitsOnTcpToo) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  (void)net.client().read_sync(1);
  const auto stats = net.stats_snapshot();
  EXPECT_GT(stats.total_sent(), 0u);
  EXPECT_EQ(stats.max_control_bits_per_msg(), 2u)
      << "the headline property is transport-independent";
  net.stop();
}

TEST(SocketNetworkTest, AllFourAlgorithmsSpeakTcp) {
  for (const auto algo : all_algorithms()) {
    SocketNetwork net(net_options(algo, 3, 1));
    net.start();
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(11)).status.ok());
    EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 11)
        << algorithm_name(algo);
    net.stop();
  }
}

TEST(SocketNetworkTest, PipelinedBatchCompletesInOrderPerProcess) {
  // submit(span) through the socket client: the per-process chains keep at
  // most one op in flight per loop thread, the rest pipeline behind it.
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  std::array<RegisterOp, 6> ops;
  for (int k = 0; k < 3; ++k) {
    ops[2 * k].kind = OpKind::kWrite;
    ops[2 * k].value = Value::from_int64(k + 1);
    ops[2 * k + 1].kind = OpKind::kRead;
    ops[2 * k + 1].reader = 1;
  }
  std::array<Ticket, 6> tickets;
  ASSERT_EQ(net.client().submit(ops, tickets.data()), 6u);
  SeqNo last_version = -1;
  for (int k = 0; k < 6; ++k) {
    const OpResult r = net.client().wait(tickets[k]);
    EXPECT_TRUE(r.status.ok()) << r.status.message();
    if (k % 2 == 1) {
      EXPECT_GE(r.version, last_version);
      last_version = r.version;
    }
  }
  const OpResult after = net.client().read_sync(2);
  EXPECT_EQ(after.version, 3);
  EXPECT_EQ(after.value.to_int64(), 3);
  net.stop();
}

TEST(SocketNetworkTest, CrashedProcessRejectsOpsAndGroupSurvives) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 5, 2));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.crash(4);
  while (!net.crashed(4)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(net.client().read_sync(4).status.code(), StatusCode::kCrashed);
  // Peers observe the dead channel; quorums never needed p4.
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(2)).status.ok());
  EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 2);
  net.stop();
}

TEST(SocketNetworkTest, MinorityCrashMidProtocol) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 5, 2));
  net.start();
  net.crash(3);
  net.crash(4);  // f = t = 2: the group must still be live
  for (int k = 1; k <= 10; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
    EXPECT_EQ(net.client()
                  .read_sync(static_cast<ProcessId>(k % 3))
                  .value.to_int64(),
              k);
  }
  net.stop();
}

TEST(SocketNetworkTest, MultiLoopCrashAndRecoverAcrossLoops) {
  // Crash and rejoin with processes sharded over several event loops: the
  // reattach commands cross loop boundaries (victim and peers live on
  // different loops), and the rejoined process serves reads again.
  auto opt = net_options(Algorithm::kTwoBit, 5, 2);
  opt.loops = 4;
  SocketNetwork net(std::move(opt));
  ASSERT_EQ(net.loop_count(), 4u);
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.crash(3);
  while (!net.crashed(3)) {  // crash is a command on the victim's loop
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(2)).status.ok());
  EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 2);
  net.recover(3);
  // Rejoin re-meshes asynchronously; poll until the rejoiner serves reads.
  OpResult out;
  for (int attempt = 0; attempt < 500; ++attempt) {
    out = net.client().read_sync(3);
    if (out.status.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(out.status.ok()) << out.status.message();
  EXPECT_EQ(out.value.to_int64(), 2);
  EXPECT_FALSE(net.crashed(3));
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(3)).status.ok());
  EXPECT_EQ(net.client().read_sync(3).value.to_int64(), 3);
  net.stop();
}

TEST(SocketNetworkTest, StopIsIdempotentAndDestructorSafe) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.stop();
  net.stop();
}

TEST(SocketNetworkTest, ShutdownDrainsDeepPipelinedChainIteratively) {
  // Regression: a pipelined chain unwinding at shutdown cascades through
  // synchronous complete_failed() calls — with mutual recursion that is a
  // stack frame per queued op, and 20k ops would overflow; the client's
  // deferred-issue drain must unwind it as a loop.
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  constexpr std::size_t kOps = 20'000;
  std::vector<RegisterOp> ops(kOps);
  for (auto& op : ops) {
    op.kind = OpKind::kWrite;
    op.value = Value::from_int64(1);
  }
  std::vector<Ticket> tickets(kOps);
  ASSERT_EQ(net.client().submit(ops, tickets.data()), kOps);
  net.stop();
  std::size_t completed = 0;
  for (const Ticket& t : tickets) {
    const OpResult r = net.client().wait(t);
    if (r.status.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kShutdown);
    }
  }
  EXPECT_LT(completed, kOps) << "stop() should strand most of the chain";
}

TEST(SocketNetworkTest, ShutdownReportsShutdownStatus) {
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.stop();
  EXPECT_EQ(net.client().write_sync(Value::from_int64(2)).status.code(),
            StatusCode::kShutdown);
  EXPECT_EQ(net.client().read_sync(1).status.code(), StatusCode::kShutdown);
}

TEST(SocketNetworkTest, LinkDecoratorComposesOverTcp) {
  // TCP is already reliable, so the link's sequencing must be exactly-once
  // pass-through (no retransmissions); this exercises the timer path of
  // the socket event loop and the decorator's runtime-independence.
  SocketNetwork::Options opt = net_options(Algorithm::kTwoBit, 3, 1);
  LinkOptions lopt;
  lopt.retransmit_timeout = 50'000'000;  // 50 ms in ns
  opt.process_factory = [lopt](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<ReliableLinkProcess>(
        cfg, pid, std::make_unique<TwoBitProcess>(cfg, pid), lopt);
  };
  SocketNetwork net(std::move(opt));
  net.start();
  for (int k = 1; k <= 10; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
    EXPECT_EQ(net.client()
                  .read_sync(static_cast<ProcessId>(k % 3))
                  .value.to_int64(),
              k);
  }
  net.stop();
}

// ---- same-loop inline admission ---------------------------------------------------

/// A token ring over the unified client, driven only by completion
/// callbacks: `tokens` ops circulate, and each completion at process p
/// issues that token's next op at process (p + 1) % n — a write at the
/// writer, a read elsewhere. Completions run on p's loop thread and issue
/// onto the next process's loop: the same loop when loops = 1 (inline
/// admission even across processes), a mix of inline and queued issues
/// otherwise. Tokens meet at processes, so the client chains pipeline
/// them. A failed op moves its token on too (a retry at the next
/// process, issued from the failure callback — with loops = 1 onto the
/// same loop, during its failure or shutdown drain). A token retires after
/// `hops` completed ops or its (`retries` + 1)-th failure.
///
/// Every op is checked to complete in its process's issue order, and
/// completed ops are logged for SwmrChecker: an op's interval starts when
/// the op before it at the same process resolved (it cannot start
/// earlier), so the history stays per-process sequential. Failed reads
/// constrain nothing and are left out.
class CallbackRing {
 public:
  CallbackRing(SocketNetwork& net, std::uint32_t tokens, std::uint32_t hops,
               std::uint32_t retries = 0)
      : net_(net), procs_(net.config().n), tokens_(tokens), hops_(hops),
        retries_(retries) {}

  void start() {
    active_.store(tokens_);
    for (std::uint32_t k = 0; k < tokens_; ++k) {
      issue(static_cast<ProcessId>(k % procs_.size()), 0, 0);
    }
  }
  bool idle() const { return active_.load() == 0; }
  bool wait_idle() {
    return eventually([this] { return idle(); });
  }

  struct Tally {
    std::uint64_t issued = 0, resolved = 0, fifo_violations = 0;
    std::uint64_t ok = 0, crashed = 0, shutdown = 0, other = 0;
  };
  Tally tally() const {
    const std::scoped_lock lock(mu_);
    return tally_;
  }
  std::vector<OpRecord> history() const {
    const std::scoped_lock lock(mu_);
    return history_;
  }

 private:
  struct Pending {
    std::uint64_t seq = 0;
    bool write = false;
    SeqNo index = 0;
    Stamp start;
  };
  struct Proc {
    std::uint64_t issued = 0;
    std::deque<Pending> queue;  ///< issued, unresolved, in issue order
  };

  // The lock is recursive: an issue refused synchronously (network
  // stopped) runs its callback inside issue().
  void issue(ProcessId p, std::uint32_t hop, std::uint32_t tries) {
    const std::scoped_lock lock(mu_);
    Proc& pr = procs_[p];
    Pending op;
    op.seq = pr.issued++;
    op.write = p == net_.config().writer;
    if (op.write) op.index = ++writes_;
    pr.queue.push_back(op);
    if (pr.queue.size() == 1) pr.queue.front().start = stamp();
    ++tally_.issued;
    auto cb = [this, p, hop, tries, seq = op.seq](const OpResult& r) {
      done(p, hop, tries, seq, r);
    };
    if (op.write) {
      net_.client().write(Value::from_int64(op.index), std::move(cb));
    } else {
      net_.client().read(p, std::move(cb));
    }
  }

  void done(ProcessId p, std::uint32_t hop, std::uint32_t tries,
            std::uint64_t seq, const OpResult& r) {
    {
      const std::scoped_lock lock(mu_);
      ++tally_.resolved;
      switch (r.status.code()) {
        case StatusCode::kOk: ++tally_.ok; break;
        case StatusCode::kCrashed: ++tally_.crashed; break;
        case StatusCode::kShutdown: ++tally_.shutdown; break;
        default: ++tally_.other; break;
      }
      Proc& pr = procs_[p];
      if (pr.queue.empty() || pr.queue.front().seq != seq) {
        ++tally_.fifo_violations;
      } else {
        record(p, pr.queue.front(), r);
        pr.queue.pop_front();
        if (!pr.queue.empty()) pr.queue.front().start = stamp();
      }
    }
    const auto next = static_cast<ProcessId>((p + 1) % procs_.size());
    if (r.status.ok() && hop + 1 < hops_) {
      issue(next, hop + 1, tries);
    } else if (!r.status.ok() && tries < retries_) {
      issue(next, hop, tries + 1);
    } else {
      active_.fetch_sub(1);
    }
  }

  void record(ProcessId p, const Pending& op, const OpResult& r) {
    if (!r.status.ok() && !op.write) return;
    OpRecord rec;
    rec.kind = op.write ? OpRecord::Kind::kWrite : OpRecord::Kind::kRead;
    rec.proc = p;
    rec.start = op.start;
    rec.completed = r.status.ok();
    if (rec.completed) rec.end = stamp();
    rec.index = op.write ? op.index : r.version;
    rec.value = op.write ? Value::from_int64(op.index) : r.value;
    history_.push_back(std::move(rec));
  }

  Stamp stamp() { return Stamp{net_.now(), ++order_}; }

  SocketNetwork& net_;
  mutable std::recursive_mutex mu_;
  std::vector<Proc> procs_;
  std::vector<OpRecord> history_;
  Tally tally_;
  SeqNo writes_ = 0;
  std::uint64_t order_ = 0;
  const std::uint32_t tokens_;
  const std::uint32_t hops_;
  const std::uint32_t retries_;
  std::atomic<std::uint32_t> active_{0};
};

/// Parameter: Options::loops. 1 puts every process on one loop, so every
/// callback-issued op (cross-process ones included) is admitted inline;
/// 0 (auto) gives each process of the n = 3 group its own loop on a
/// multi-core host.
class InlineAdmissionTest : public testing::TestWithParam<std::uint32_t> {
 protected:
  static SocketNetwork::Options options() {
    auto opt = net_options(Algorithm::kTwoBit, 3, 1);
    opt.loops = GetParam();
    return opt;
  }
};

TEST_P(InlineAdmissionTest, CallbackRingKeepsPerProcessFifoAndAtomicity) {
  SocketNetwork net(options());
  net.start();
  CallbackRing ring(net, /*tokens=*/6, /*hops=*/60);
  ring.start();
  ASSERT_TRUE(ring.wait_idle());
  net.stop();
  const auto t = ring.tally();
  EXPECT_EQ(t.fifo_violations, 0u);
  EXPECT_EQ(t.ok, 6u * 60u);
  EXPECT_EQ(t.resolved, t.issued);
  const auto check = SwmrChecker::check(ring.history(), Value::from_int64(0));
  EXPECT_TRUE(check.ok) << check.error;
}

TEST_P(InlineAdmissionTest, SpanSubmittedFromCallbackPipelinesInOrder) {
  // submit(span) from a completion callback: the writer's loop thread
  // issues a window of writes (inline: same process) and reads at p1/p2
  // (inline too when loops = 1). The chains pipeline them per process.
  SocketNetwork net(options());
  net.start();
  constexpr int kRounds = 8;
  std::vector<Ticket> tickets(3 * kRounds);
  std::atomic<bool> submitted{false};
  net.client().write(Value::from_int64(1), [&](const OpResult& r) {
    ASSERT_TRUE(r.status.ok());
    std::vector<RegisterOp> ops(3 * kRounds);
    for (int k = 0; k < kRounds; ++k) {
      ops[3 * k].kind = OpKind::kWrite;
      ops[3 * k].value = Value::from_int64(k + 2);
      ops[3 * k + 1].kind = OpKind::kRead;
      ops[3 * k + 1].reader = 1;
      ops[3 * k + 2].kind = OpKind::kRead;
      ops[3 * k + 2].reader = 2;
    }
    net.client().submit(ops, tickets.data());
    submitted.store(true);
  });
  ASSERT_TRUE(eventually([&] { return submitted.load(); }));
  std::array<SeqNo, 3> last_version{0, 0, 0};
  for (int k = 0; k < 3 * kRounds; ++k) {
    const OpResult r = net.client().wait(tickets[k]);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    if (k % 3 == 0) continue;
    // A process's reads run in submission order, so what one replica
    // returns never goes back in history.
    EXPECT_GE(r.version, last_version[k % 3]) << "op " << k;
    EXPECT_LE(r.version, kRounds + 1);
    EXPECT_EQ(r.value.to_int64(), r.version) << "op " << k;
    last_version[k % 3] = r.version;
  }
  const OpResult after = net.client().read_sync(1);
  EXPECT_EQ(after.version, kRounds + 1);
  EXPECT_EQ(after.value.to_int64(), kRounds + 1);
  net.stop();
}

TEST_P(InlineAdmissionTest, CrashMidChainResolvesEveryOpOkOrCrashed) {
  // Tokens keep circulating into p2 after it crashes: the ops p1's
  // callbacks issue there (inline when loops = 1) must fail with kCrashed,
  // in order, while p0 and p1 keep completing theirs. Each failure issues
  // the token's next op from p2's loop thread while that loop fails its
  // queue — with loops = 1 that op is admitted to p0 mid-drain and must
  // still start even once no other traffic is left to wake the loop.
  SocketNetwork net(options());
  net.start();
  CallbackRing ring(net, /*tokens=*/6, /*hops=*/1'000'000, /*retries=*/3);
  ring.start();
  ASSERT_TRUE(eventually([&] { return ring.tally().ok >= 150; }));
  net.crash(2);
  ASSERT_TRUE(ring.wait_idle()) << "every token must retire at p2";
  const auto t = ring.tally();
  EXPECT_EQ(t.fifo_violations, 0u);
  EXPECT_EQ(t.resolved, t.issued);
  EXPECT_EQ(t.ok + t.crashed, t.resolved);
  EXPECT_GE(t.crashed, 4u);
  const auto check = SwmrChecker::check(ring.history(), Value::from_int64(0));
  EXPECT_TRUE(check.ok) << check.error;
  // The survivors still serve the register.
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(-1)).status.ok());
  EXPECT_EQ(net.client().read_sync(1).value.to_int64(), -1);
  net.stop();
}

TEST_P(InlineAdmissionTest, StopMidChainResolvesEveryOpOkOrShutdown) {
  // Failed ops are retried at the next process from the callbacks the
  // shutdown drain runs: with loops = 1 that process may already be
  // drained, so the retry must be refused with kShutdown, never stranded
  // in its admission queue.
  SocketNetwork net(options());
  net.start();
  CallbackRing ring(net, /*tokens=*/6, /*hops=*/1'000'000, /*retries=*/2);
  ring.start();
  ASSERT_TRUE(eventually([&] { return ring.tally().ok >= 150; }));
  net.stop();  // joins the loops: every accepted op has resolved
  EXPECT_TRUE(ring.idle());
  const auto t = ring.tally();
  EXPECT_EQ(t.fifo_violations, 0u);
  EXPECT_EQ(t.resolved, t.issued);
  EXPECT_EQ(t.ok + t.shutdown, t.resolved);
  EXPECT_GE(t.shutdown, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Loops, InlineAdmissionTest, testing::Values(1u, 0u),
    [](const testing::TestParamInfo<std::uint32_t>& info) {
      return info.param == 0 ? std::string("auto_loops")
                             : "loops" + std::to_string(info.param);
    });

// ---- per-process wire stats ------------------------------------------------------

TEST(SocketStatsTest, SnapshotDuringTrafficAndTotalsAfterStop) {
  // Each process tallies its own sends; stats_snapshot() merges them from
  // another thread while the loops keep sending (the tsan job runs this).
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  CallbackRing ring(net, /*tokens=*/6, /*hops=*/150);
  ring.start();
  std::uint64_t last = 0;
  while (!ring.idle()) {
    const MessageStats s = net.stats_snapshot();
    EXPECT_GE(s.total_sent(), last) << "merged counters are monotone";
    EXPECT_LE(s.max_control_bits_per_msg(), 2u);
    last = s.total_sent();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_TRUE(ring.wait_idle());
  net.stop();
  const MessageStats s = net.stats_snapshot();
  std::uint64_t by_type = 0;
  for (std::uint8_t type = 0; type < MessageStats::kMaxTypes; ++type) {
    by_type += s.sent_of_type(type);
  }
  EXPECT_EQ(by_type, s.total_sent());
  EXPECT_GE(s.total_sent(), last);
  EXPECT_GT(s.total_sent(), 0u);
  EXPECT_EQ(s.total_dropped(), 0u);
  EXPECT_EQ(s.max_control_bits_per_msg(), 2u);
  EXPECT_GT(s.local_memory_peak(), 0u);
}

// ---- the loop iteration: one flush per dirty channel, bounded spin ---------------

/// Frames a probe process received, in arrival order (its loop thread
/// writes, the test thread reads).
struct Inbox {
  std::mutex mu;
  std::vector<SeqNo> seqs;

  std::vector<SeqNo> snapshot() {
    const std::scoped_lock lock(mu);
    return seqs;
  }
};

/// No register protocol: process `from` sends `count` ACK frames (seq 1..
/// count) to process `to` from one timer, and every process records what
/// it receives in the shared inbox. Nothing else ever travels.
class BurstProcess final : public RegisterProcessBase {
 public:
  BurstProcess(const GroupConfig& cfg, ProcessId self, ProcessId from,
               ProcessId to, SeqNo count, Inbox& inbox)
      : RegisterProcessBase(cfg, self), from_(from), to_(to), count_(count),
        inbox_(inbox) {}

  void on_start(NetworkContext& net) override {
    if (self_id() != from_) return;
    net.schedule(20'000'000, [this, &net] {  // 20 ms
      for (SeqNo k = 1; k <= count_; ++k) {
        Message msg;
        msg.type = static_cast<std::uint8_t>(TwoBitType::kAck);
        msg.seq = k;
        msg.wire = codec().account(msg);
        net.send(to_, msg);
      }
    });
  }
  void on_message(NetworkContext&, ProcessId, const Message& msg) override {
    const std::scoped_lock lock(inbox_.mu);
    inbox_.seqs.push_back(msg.seq);
  }
  void start_write(NetworkContext&, Value, WriteDone) override {
    throw ContractViolation("BurstProcess runs no operations");
  }
  void start_read(NetworkContext&, ReadDone) override {
    throw ContractViolation("BurstProcess runs no operations");
  }
  std::uint64_t local_memory_bytes() const override { return 0; }
  const Codec& codec() const override { return twobit_codec(); }

 private:
  const ProcessId from_;
  const ProcessId to_;
  const SeqNo count_;
  Inbox& inbox_;
};

TEST(SocketLoopTest, FramesQueuedByATimerLeaveInOneWrite) {
  // A send only queues its frame; the loop writes each dirty channel once
  // before it waits again. Here a timer is the only thing that ever runs:
  // if the pre-wait flush skipped sends made outside on_io, the frames
  // would sit in the outbuf with nothing left to wake the loop.
  static constexpr SeqNo kFrames = 16;
  Inbox inbox;
  SocketNetwork::Options opt = net_options(Algorithm::kTwoBit, 3, 1);
  opt.process_factory = [&inbox](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<BurstProcess>(cfg, pid, /*from=*/0, /*to=*/1,
                                          kFrames, inbox);
  };
  SocketNetwork net(std::move(opt));
  net.start();
  ASSERT_TRUE(eventually([&] {
    return inbox.snapshot().size() >= static_cast<std::size_t>(kFrames);
  })) << "received " << inbox.snapshot().size() << " of " << kFrames;
  std::vector<SeqNo> expected(kFrames);
  for (SeqNo k = 0; k < kFrames; ++k) expected[k] = k + 1;
  EXPECT_EQ(inbox.snapshot(), expected) << "all frames, in order, once";
  // The only bytes any channel ever carried: one write(2).
  EXPECT_EQ(net.backpressure_snapshot().socket_writes, 1u);
  net.stop();
}

double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

TEST(SocketLoopTest, IdleLoopsBlockInsteadOfSpinning) {
  // A loop with a spare hardware thread polls briefly before it blocks;
  // the poll is bounded, so an idle group costs next to no CPU. A loop
  // that never blocked would burn one core per loop over the sleep.
  SocketNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double used = process_cpu_seconds() - before;
  EXPECT_LT(used, 0.030) << "idle CPU over 300 ms: " << used * 1e3 << " ms";
  net.stop();
}

// ---- untrusted peer frames ---------------------------------------------------------

/// The two ways a peer's frame can be unusable.
enum class BadFrame {
  kMalformed,  ///< the codec rejects the payload (ContractViolation)
  kOverlong,   ///< the length prefix exceeds FrameBuffer::kMaxFrameBytes
};

/// Wraps a process's codec to spoil its `at`-th frame. kMalformed: the
/// `at`-th decode throws ContractViolation, exactly as the real codecs
/// reject corrupt input. kOverlong: the `at`-th encode is padded to one
/// byte over the frame cap, so its receiver sees an over-length prefix.
class FaultyCodec final : public Codec {
 public:
  FaultyCodec(const Codec& inner, BadFrame fault, std::uint32_t at)
      : inner_(inner), fault_(fault), at_(at) {}
  void encode_into(const Message& msg, std::string& out) const override {
    inner_.encode_into(msg, out);
    if (fault_ == BadFrame::kOverlong && ++encoded_ == at_) {
      out.resize(FrameBuffer::kMaxFrameBytes + 1);
    } else if (out.capacity() > 1024) {
      out.shrink_to_fit();  // don't keep the 64 MiB scratch around
    }
  }
  void decode_into(std::string_view bytes, Message& out) const override {
    if (fault_ == BadFrame::kMalformed && ++decoded_ == at_) {
      throw ContractViolation("test: corrupt frame");
    }
    inner_.decode_into(bytes, out);
  }
  WireAccounting account(const Message& msg) const override {
    return inner_.account(msg);
  }
  std::string type_name(std::uint8_t type) const override {
    return inner_.type_name(type);
  }

 private:
  const Codec& inner_;
  const BadFrame fault_;
  const std::uint32_t at_;
  mutable std::uint32_t encoded_ = 0;  // owning loop thread only
  mutable std::uint32_t decoded_ = 0;
};

/// A register process that speaks through a FaultyCodec.
class FaultyProcess final : public RegisterProcessBase {
 public:
  FaultyProcess(std::unique_ptr<RegisterProcessBase> inner, BadFrame fault,
                std::uint32_t at)
      : RegisterProcessBase(inner->config(), inner->self_id()),
        inner_(std::move(inner)),
        codec_(inner_->codec(), fault, at) {}

  void on_start(NetworkContext& net) override { inner_->on_start(net); }
  void on_message(NetworkContext& net, ProcessId from,
                  const Message& msg) override {
    inner_->on_message(net, from, msg);
  }
  void on_crash() override { inner_->on_crash(); }
  void start_write(NetworkContext& net, Value v, WriteDone done) override {
    inner_->start_write(net, std::move(v), std::move(done));
  }
  void start_read(NetworkContext& net, ReadDone done) override {
    inner_->start_read(net, std::move(done));
  }
  std::uint64_t local_memory_bytes() const override {
    return inner_->local_memory_bytes();
  }
  const Codec& codec() const override { return codec_; }

 private:
  std::unique_ptr<RegisterProcessBase> inner_;
  FaultyCodec codec_;
};

class UntrustedFrameTest : public testing::TestWithParam<BadFrame> {};

TEST_P(UntrustedFrameTest, BadFrameClosesOnlyItsChannel) {
  // p1 spoils its 8th frame (decoded for kMalformed, sent for kOverlong).
  // The receiving end closes that one channel (p0-p1 or p1-p2) and the
  // other end follows on EOF; the loop threads, the processes and their
  // other channels carry on. With n = 3, t = 1 either surviving mesh still
  // gives every process a quorum, so all operations keep completing.
  const BadFrame fault = GetParam();
  constexpr std::uint32_t kN = 3;
  SocketNetwork::Options opt = net_options(Algorithm::kTwoBit, kN, 1);
  opt.process_factory = [fault](const GroupConfig& cfg, ProcessId pid)
      -> std::unique_ptr<RegisterProcessBase> {
    auto proc = make_register_process(Algorithm::kTwoBit, cfg, pid);
    if (pid != 1) return proc;
    return std::make_unique<FaultyProcess>(std::move(proc), fault, 8);
  };
  SocketNetwork net(std::move(opt));
  net.start();
  EXPECT_EQ(net.backpressure_snapshot().open_channels, kN * (kN - 1));

  HistoryLog log;
  std::atomic<int> failures{0};
  auto run_clients = [&](int ops, SeqNo first_index) {
    std::vector<std::jthread> clients;
    for (ProcessId pid = 0; pid < kN; ++pid) {
      clients.emplace_back([&, pid] {
        for (int k = 0; k < ops; ++k) {
          if (pid == 0) {
            const SeqNo index = first_index + k;
            const Value v = Value::from_int64(index);
            const auto id = log.begin_write(pid, net.now(), index, v);
            if (!net.client().write_sync(v).status.ok()) {
              ++failures;
              return;
            }
            log.end_write(id, net.now());
          } else {
            const auto id = log.begin_read(pid, net.now());
            const OpResult r = net.client().read_sync(pid);
            if (!r.status.ok()) {
              ++failures;
              return;
            }
            log.end_read(id, net.now(), r.value, r.version);
          }
        }
      });
    }
  };
  run_clients(40, 1);
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(eventually([&] {
    return net.backpressure_snapshot().open_channels == kN * (kN - 1) - 2;
  })) << "exactly one channel (both of its ends) must close";
  const auto bp = net.backpressure_snapshot();
  EXPECT_EQ(bp.malformed_frames, fault == BadFrame::kMalformed ? 1u : 0u);
  EXPECT_EQ(bp.oversized_frames, fault == BadFrame::kOverlong ? 1u : 0u);
  // After the rejection: every process still completes operations.
  run_clients(10, 41);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(net.backpressure_snapshot().open_channels, kN * (kN - 1) - 2);
  EXPECT_EQ(net.backpressure_snapshot().parked_now, 0u);
  const auto check = SwmrChecker::check(log.ops(), Value::from_int64(0));
  EXPECT_TRUE(check.ok) << check.error;
  for (ProcessId pid = 0; pid < kN; ++pid) {
    EXPECT_EQ(net.client().read_sync(pid).value.to_int64(), 50);
  }
  net.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Faults, UntrustedFrameTest,
    testing::Values(BadFrame::kMalformed, BadFrame::kOverlong),
    [](const testing::TestParamInfo<BadFrame>& info) {
      return info.param == BadFrame::kMalformed ? std::string("malformed")
                                                : std::string("overlong");
    });

// ---- the inbound frame ring --------------------------------------------------------

TEST(FrameBufferTest, LengthCapAcceptsTheLimitAndRejectsLimitPlusOne) {
  constexpr std::size_t kMax = FrameBuffer::kMaxFrameBytes;
  std::string_view frame;
  {
    // Exactly the cap: a legal frame, buffered until complete.
    FrameBuffer buf;
    wire::put_u32(buf.tail(), static_cast<std::uint32_t>(kMax));
    EXPECT_FALSE(buf.next_frame(frame));
    EXPECT_FALSE(buf.overlong());
    buf.tail().append(kMax, 'x');
    ASSERT_TRUE(buf.next_frame(frame));
    EXPECT_EQ(frame.size(), kMax);
    EXPECT_FALSE(buf.overlong());
  }
  {
    // One byte over: rejected as soon as the prefix is readable, before
    // any payload is buffered, and the stream stays stopped.
    FrameBuffer buf;
    FrameBuffer::append_frame(buf.tail(), "before");
    wire::put_u32(buf.tail(), static_cast<std::uint32_t>(kMax + 1));
    ASSERT_TRUE(buf.next_frame(frame));
    EXPECT_EQ(frame, "before");
    EXPECT_FALSE(buf.next_frame(frame));
    EXPECT_TRUE(buf.overlong());
    FrameBuffer::append_frame(buf.tail(), "after");
    EXPECT_FALSE(buf.next_frame(frame));
    EXPECT_TRUE(buf.overlong());
    // clear() is the channel-reset fence: a fresh stream parses again.
    buf.clear();
    EXPECT_FALSE(buf.overlong());
    FrameBuffer::append_frame(buf.tail(), "fresh");
    ASSERT_TRUE(buf.next_frame(frame));
    EXPECT_EQ(frame, "fresh");
  }
}


TEST(FrameBufferTest, DrainsManySmallFramesFromOneBufferedRead) {
  // One large buffered read delivering hundreds of small frames — the case
  // the consumed-offset ring exists for. Every frame must come back intact
  // and in order, with the consumed prefix folded away only on the
  // amortized compaction schedule (never once per drain).
  FrameBuffer buf;
  constexpr int kFrames = 512;
  for (int k = 0; k < kFrames; ++k) {
    FrameBuffer::append_frame(buf.tail(),
                              "frame-" + std::to_string(k) + "-payload");
  }
  std::string_view frame;
  for (int k = 0; k < kFrames; ++k) {
    ASSERT_TRUE(buf.next_frame(frame)) << "frame " << k;
    EXPECT_EQ(frame, "frame-" + std::to_string(k) + "-payload");
  }
  EXPECT_FALSE(buf.next_frame(frame));
  EXPECT_EQ(buf.pending_bytes(), 0u);
  EXPECT_LT(buf.compactions(), static_cast<std::uint64_t>(kFrames) / 4)
      << "draining a frame must not memmove the whole remainder each time";
}

TEST(FrameBufferTest, PartialFramesSpanAppends) {
  // Stream bytes arrive in arbitrary slices: a frame split across appends
  // must only surface once complete, and zero-length frames are legal.
  FrameBuffer buf;
  std::string wire;
  FrameBuffer::append_frame(wire, "alpha");
  FrameBuffer::append_frame(wire, "");
  FrameBuffer::append_frame(wire, std::string(3000, 'z'));
  std::string_view frame;
  for (std::size_t cut = 1; cut < wire.size(); cut += 911) {
    FrameBuffer sliced;
    sliced.tail().append(wire, 0, cut);
    std::vector<std::string> seen;
    while (sliced.next_frame(frame)) seen.push_back(std::string(frame));
    sliced.tail().append(wire, cut, std::string::npos);
    while (sliced.next_frame(frame)) seen.push_back(std::string(frame));
    ASSERT_EQ(seen.size(), 3u) << "cut at " << cut;
    EXPECT_EQ(seen[0], "alpha");
    EXPECT_EQ(seen[1], "");
    EXPECT_EQ(seen[2], std::string(3000, 'z'));
  }
  (void)buf;
}

TEST(FrameBufferTest, InterleavedAppendDrainKeepsOffsetBounded) {
  // Producer/consumer in lockstep with a persistent one-frame backlog: the
  // read offset must stay bounded by compaction instead of growing without
  // limit (the ring's whole point).
  FrameBuffer buf;
  std::string_view frame;
  FrameBuffer::append_frame(buf.tail(), "backlog");
  for (int k = 0; k < 10000; ++k) {
    FrameBuffer::append_frame(buf.tail(), "item-" + std::to_string(k));
    ASSERT_TRUE(buf.next_frame(frame));
  }
  EXPECT_LT(buf.read_offset() + buf.pending_bytes(), 4096u)
      << "storage must stay near the backlog size, not the bytes ever seen";
  ASSERT_TRUE(buf.next_frame(frame));
  EXPECT_EQ(frame, "item-9999");
}

// ---- concurrent workloads with atomicity checking -----------------------------------

struct SocketLinCase {
  Algorithm algo;
  std::uint32_t n;
  std::uint32_t t;
  std::uint32_t crashes;
  std::uint64_t seed;
  std::uint32_t loops = 0;  ///< 0 = auto (see SocketNetwork::Options)
};

std::string case_name(const testing::TestParamInfo<SocketLinCase>& info) {
  const auto& c = info.param;
  std::string name = algorithm_name(c.algo);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += "_n" + std::to_string(c.n) + "c" + std::to_string(c.crashes) +
          "_s" + std::to_string(c.seed);
  if (c.loops != 0) name += "_l" + std::to_string(c.loops);
  return name;
}

class SocketLinearizability : public testing::TestWithParam<SocketLinCase> {};

TEST_P(SocketLinearizability, ConcurrentTcpHistoryIsAtomic) {
  const auto& c = GetParam();
  SocketNetwork::Options opt;
  opt.cfg = make_cfg(c.n, c.t);
  opt.algo = c.algo;
  opt.loops = c.loops;
  SocketNetwork net(opt);
  const auto result = run_live_workload(
      net, {.seed = c.seed, .ops_per_process = 20, .crashes = c.crashes});
  const auto check = result.check_atomicity(opt.cfg.initial);
  EXPECT_TRUE(check.ok) << check.error;
  if (c.crashes == 0) {
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
  }
  EXPECT_GT(net.stats_snapshot().total_sent(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SocketLinearizability,
    testing::Values(SocketLinCase{Algorithm::kTwoBit, 3, 1, 0, 1},
                    SocketLinCase{Algorithm::kTwoBit, 5, 2, 0, 2},
                    SocketLinCase{Algorithm::kTwoBit, 5, 2, 2, 3},
                    SocketLinCase{Algorithm::kTwoBit, 7, 3, 3, 4},
                    SocketLinCase{Algorithm::kAbdUnbounded, 5, 2, 0, 5},
                    SocketLinCase{Algorithm::kAbdUnbounded, 5, 2, 2, 6},
                    SocketLinCase{Algorithm::kAttiya, 3, 1, 0, 7},
                    SocketLinCase{Algorithm::kAbdBounded, 3, 1, 0, 8},
                    // Multi-loop sweep: the same histories must stay atomic
                    // when processes are sharded pid % loops across event
                    // loops (cross-loop frames, timers, and crashes).
                    SocketLinCase{Algorithm::kTwoBit, 5, 2, 0, 9, 2},
                    SocketLinCase{Algorithm::kTwoBit, 5, 2, 2, 10, 4},
                    SocketLinCase{Algorithm::kTwoBit, 7, 3, 3, 11, 4},
                    SocketLinCase{Algorithm::kAbdUnbounded, 5, 2, 2, 12, 2}),
    case_name);

}  // namespace
}  // namespace tbr
