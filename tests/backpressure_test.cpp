// Backpressure: the watermark state machine on one Connection, and the
// whole-runtime behaviour — a slow reader parks writers at high water,
// EPOLLOUT-driven drains resume them at low water, and nothing queued is
// ever lost or reordered across the transition. Also the Connection's
// read rounds: the budget, the stop at the first short read, and the
// length cap on inbound frames.
#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "transport/connection.hpp"
#include "transport/frame_buffer.hpp"
#include "transport/socket_network.hpp"

namespace tbr {
namespace {

using namespace std::chrono_literals;

bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

std::string frame_payload(std::uint32_t k, std::size_t size) {
  std::string payload(size, static_cast<char>('a' + (k % 26)));
  payload[0] = static_cast<char>(k & 0xFF);
  payload[1] = static_cast<char>((k >> 8) & 0xFF);
  return payload;
}

TEST(ConnLimitsTest, ValidationRejectsInvertedWatermarks) {
  ConnLimits bad;
  bad.outbuf_high_water = 1024;
  bad.outbuf_low_water = 1024;  // must be strictly below
  EXPECT_THROW(bad.validate(), ContractViolation);
  bad.outbuf_low_water = 64;
  EXPECT_NO_THROW(bad.validate());
  bad.read_budget = 0;
  EXPECT_THROW(bad.validate(), ContractViolation);
}

TEST(ConnectionTest, ParksAtHighWaterResumesAtLowWaterNoLossNoReorder) {
  auto [writer_fd, reader_fd] = tcp::make_loopback_pair();
  // Tiny kernel buffers: the userspace outbuf backs up after a handful of
  // frames instead of megabytes.
  tcp::set_sndbuf(writer_fd.get(), 4 * 1024);
  tcp::set_rcvbuf(reader_fd.get(), 4 * 1024);
  tcp::set_nonblocking(writer_fd.get());
  tcp::set_nonblocking(reader_fd.get());

  ConnLimits limits;
  limits.outbuf_high_water = 32 * 1024;
  limits.outbuf_low_water = 8 * 1024;
  Connection conn;
  conn.configure(limits);
  conn.adopt(std::move(writer_fd));

  // Queue (and opportunistically flush) frames until the connection parks.
  constexpr std::size_t kFrame = 1024;
  std::uint32_t queued = 0;
  bool parked = false;
  while (!parked) {
    ASSERT_LT(queued, 10'000u) << "never parked";
    parked = conn.queue_frame(frame_payload(queued, kFrame));
    ++queued;
    const auto fo = conn.flush();
    ASSERT_NE(fo.status, IoStatus::kClosed);
    ASSERT_FALSE(fo.resumed) << "resume without a drain";
  }
  EXPECT_TRUE(conn.paused());
  EXPECT_GE(conn.queued_bytes(), limits.outbuf_high_water);

  // While parked with the kernel buffers full, flushing makes no progress
  // and must not resume.
  const auto stuck = conn.flush();
  EXPECT_EQ(stuck.status, IoStatus::kOk);
  EXPECT_FALSE(stuck.resumed);
  EXPECT_TRUE(conn.paused());

  // Drain the reader side; keep flushing. The connection must resume at
  // (or below) low water, and every frame must come out in order.
  FrameBuffer rx;
  std::uint32_t received = 0;
  bool resumed = false;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (received < queued) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "drain stalled";
    (void)tcp::read_some(reader_fd.get(), rx.tail(), 64 * 1024);
    std::string_view frame;
    while (rx.next_frame(frame)) {
      ASSERT_EQ(frame.size(), kFrame);
      const auto k = static_cast<std::uint32_t>(
                         static_cast<unsigned char>(frame[0])) |
                     (static_cast<std::uint32_t>(
                          static_cast<unsigned char>(frame[1]))
                      << 8);
      ASSERT_EQ(k, received) << "frame loss or reorder across the park";
      ++received;
    }
    const auto fo = conn.flush();
    ASSERT_NE(fo.status, IoStatus::kClosed);
    if (fo.resumed) {
      resumed = true;
      EXPECT_LE(conn.queued_bytes(), limits.outbuf_low_water);
    }
  }
  EXPECT_TRUE(resumed) << "low-water transition never fired";
  EXPECT_FALSE(conn.paused());
  EXPECT_EQ(received, queued);
}

TEST(ConnectionTest, WriteBudgetBoundsOneFlushRound) {
  auto [writer_fd, reader_fd] = tcp::make_loopback_pair();
  tcp::set_nonblocking(writer_fd.get());
  ConnLimits limits;
  limits.write_budget = 4 * 1024;
  Connection conn;
  conn.configure(limits);
  conn.adopt(std::move(writer_fd));

  conn.queue_frame(std::string(64 * 1024, 'z'));
  const std::size_t before = conn.queued_bytes();
  const auto fo = conn.flush();
  EXPECT_EQ(fo.status, IoStatus::kOk);
  // One readiness round moves at most write_budget bytes — a hot
  // connection cannot monopolize its loop.
  EXPECT_GE(conn.queued_bytes(), before - limits.write_budget);
  EXPECT_TRUE(conn.wants_write());
}

TEST(ConnectionTest, ReadBudgetBoundsOneReadRound) {
  auto [writer_fd, reader_fd] = tcp::make_loopback_pair();
  tcp::set_nonblocking(reader_fd.get());
  // Fill from the writer side (blocking is fine: the kernel buffers it).
  const std::string blob(48 * 1024, 'q');
  tcp::write_all_blocking(writer_fd.get(), blob.data(), blob.size());

  ConnLimits limits;
  limits.read_budget = 8 * 1024;
  Connection conn;
  conn.configure(limits);
  conn.adopt(std::move(reader_fd));
  // 48 KiB are waiting, but one readiness round buffers at most
  // read_budget bytes.
  EXPECT_EQ(conn.read_budgeted(), IoStatus::kOk);
  EXPECT_GT(conn.inbuf_pending(), 0u);
  EXPECT_LE(conn.inbuf_pending(), limits.read_budget);
  // The next round picks up another budget's worth, no more.
  EXPECT_EQ(conn.read_budgeted(), IoStatus::kOk);
  EXPECT_LE(conn.inbuf_pending(), 2 * limits.read_budget);
  EXPECT_GT(conn.inbuf_pending(), limits.read_budget);
}

/// Drain `conn` the way its event loop does: wait for readability
/// (level-triggered, like the loops' epoll), run one budgeted read round,
/// peel every complete frame. Stops once `expect` frames arrived.
std::vector<std::string> drain_rounds(Connection& conn, std::size_t expect,
                                      std::vector<std::string> got = {}) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  std::string_view frame;
  while (got.size() < expect && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{conn.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    EXPECT_EQ(conn.read_budgeted(), IoStatus::kOk);
    while (conn.next_frame(frame)) got.emplace_back(frame);
  }
  return got;
}

TEST(ConnectionTest, ShortReadRuleStrandsNoFrame) {
  // A read round ends at the first short read. Backlogs above one read
  // chunk (16 KiB) and of exactly one chunk — where the chunk-sized read
  // is full and only the next read would see EAGAIN — must both drain
  // completely, with the default budget and with a budget of one chunk.
  ASSERT_EQ(tcp::kReadChunkBytes, 16u * 1024u);
  struct Case {
    std::size_t frames;
    std::size_t payload;
    std::size_t budget;
  };
  // 40 x (4 + 1024) = 41120 bytes; 16 x (4 + 1020) = 16384 bytes exactly.
  for (const Case c : {Case{40, 1024, 256 * 1024}, Case{16, 1020, 256 * 1024},
                       Case{40, 1024, 16 * 1024}, Case{16, 1020, 16 * 1024}}) {
    auto [writer_fd, reader_fd] = tcp::make_loopback_pair();
    tcp::set_nonblocking(reader_fd.get());
    std::string wire;
    std::vector<std::string> sent;
    for (std::uint32_t k = 0; k < c.frames; ++k) {
      sent.push_back(frame_payload(k, c.payload));
      FrameBuffer::append_frame(wire, sent.back());
    }
    if (c.frames == 16) {
      ASSERT_EQ(wire.size(), tcp::kReadChunkBytes);
    }
    tcp::write_all_blocking(writer_fd.get(), wire.data(), wire.size());

    ConnLimits limits;
    limits.read_budget = c.budget;
    Connection conn;
    conn.configure(limits);
    conn.adopt(std::move(reader_fd));
    const auto got = drain_rounds(conn, sent.size());
    EXPECT_EQ(got, sent) << c.frames << " frames, budget " << c.budget;
    EXPECT_EQ(conn.inbuf_pending(), 0u);
  }
}

TEST(ConnectionTest, BytesArrivingAfterAShortReadAreReportedAgain) {
  // The short read that ended a round does not lose interest in the fd:
  // a later burst makes it readable again and the next round takes it.
  auto [writer_fd, reader_fd] = tcp::make_loopback_pair();
  tcp::set_nonblocking(reader_fd.get());
  Connection conn;
  conn.configure(ConnLimits{});
  conn.adopt(std::move(reader_fd));
  std::vector<std::string> sent;
  std::string wire;
  for (std::uint32_t k = 0; k < 10; ++k) {
    sent.push_back(frame_payload(k, 700));
    FrameBuffer::append_frame(wire, sent.back());
  }
  tcp::write_all_blocking(writer_fd.get(), wire.data(), wire.size());
  auto got = drain_rounds(conn, 10);
  ASSERT_EQ(got.size(), 10u);
  wire.clear();
  for (std::uint32_t k = 10; k < 20; ++k) {
    sent.push_back(frame_payload(k, 3000));
    FrameBuffer::append_frame(wire, sent.back());
  }
  tcp::write_all_blocking(writer_fd.get(), wire.data(), wire.size());
  got = drain_rounds(conn, 20, std::move(got));
  EXPECT_EQ(got, sent);
}

TEST(ConnectionTest, OverlongLengthPrefixStopsTheStream) {
  // A prefix above FrameBuffer::kMaxFrameBytes: the frames before it are
  // delivered, then the connection reports the stream unusable instead of
  // buffering toward the announced size.
  auto [writer_fd, reader_fd] = tcp::make_loopback_pair();
  tcp::set_nonblocking(reader_fd.get());
  std::string wire;
  FrameBuffer::append_frame(wire, "good");
  const auto len = static_cast<std::uint32_t>(FrameBuffer::kMaxFrameBytes + 1);
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  wire.append(4096, 'j');
  tcp::write_all_blocking(writer_fd.get(), wire.data(), wire.size());

  Connection conn;
  conn.configure(ConnLimits{});
  conn.adopt(std::move(reader_fd));
  const auto got = drain_rounds(conn, 1);
  ASSERT_EQ(got, std::vector<std::string>{"good"});
  EXPECT_TRUE(eventually([&] {
    (void)conn.read_budgeted();
    std::string_view frame;
    EXPECT_FALSE(conn.next_frame(frame));
    return conn.inbound_overlong();
  }));
  EXPECT_LE(conn.inbuf_pending(), wire.size());
  conn.close();
  EXPECT_FALSE(conn.inbound_overlong()) << "close() resets the stream";
}

TEST(ConnectionTest, TeardownOnPeerCloseReportsClosed) {
  auto [writer_fd, reader_fd] = tcp::make_loopback_pair();
  tcp::set_nonblocking(writer_fd.get());
  Connection conn;
  conn.configure(ConnLimits{});
  conn.adopt(std::move(writer_fd));
  reader_fd.reset();  // peer gone
  // Stuff until the kernel notices the reset (first writes may succeed).
  Connection::FlushOutcome fo;
  for (int k = 0; k < 64 && fo.status != IoStatus::kClosed; ++k) {
    conn.queue_frame(std::string(8 * 1024, 'x'));
    fo = conn.flush();
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(fo.status, IoStatus::kClosed);
  conn.close();
  EXPECT_FALSE(conn.alive());
  EXPECT_EQ(conn.queued_bytes(), 0u);
  EXPECT_FALSE(conn.paused());
}

// ---- whole-runtime backpressure --------------------------------------------------

TEST(SocketBackpressureTest, SlowReaderParksWriterThenResumesWithoutLoss) {
  SocketNetwork::Options opt;
  opt.cfg.n = 3;
  opt.cfg.t = 1;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  // The ABD baseline, deliberately: its writer broadcasts every phase to
  // every peer unconditionally, so a slow reader's channel backs up. (The
  // paper's two-bit algorithm is self-clocking per channel — at most one
  // unconfirmed WRITE per peer — so it can never flood a peer on its own;
  // the transport-level backpressure exists for protocols without that
  // discipline, and for it we need one here.)
  opt.algo = Algorithm::kAbdUnbounded;
  // Small watermarks AND small kernel buffers: loopback sockets auto-tune
  // into the megabytes and would absorb the whole backlog before the
  // userspace outbuf ever crossed high water.
  opt.limits.outbuf_high_water = 64 * 1024;
  opt.limits.outbuf_low_water = 16 * 1024;
  opt.limits.kernel_buffer_bytes = 16 * 1024;
  // Completion callbacks run on the loop thread, so they count outcomes
  // instead of asserting there; the counters are declared before the
  // network so that a failed test's teardown, whose kShutdown completions
  // still reach the callbacks, never touches a destroyed counter.
  std::atomic<std::uint32_t> completed{0};
  std::atomic<std::uint32_t> failures{0};
  std::atomic<bool> stalled_done{false};
  SocketNetwork net(std::move(opt));
  net.start();

  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  ASSERT_FALSE(net.parked(0));

  // Process 2 stops draining its sockets: the classic slow reader. Writes
  // still complete (the n-t = 2 quorum is processes {0, 1}), but frames
  // toward 2 pile up in process 0's outbuf until it parks.
  net.set_read_paused(2, true);

  const std::string payload(4096, 'v');
  std::uint32_t issued = 1;  // the warm-up write above
  while (!net.parked(0)) {
    ASSERT_LT(issued, 20'000u)
        << "writer never parked; completed=" << completed.load()
        << " peak_outbuf=" << net.backpressure_snapshot().peak_outbuf_bytes;
    net.client().write(Value::from_string(payload),
                       [&](const OpResult& r) {
                         if (!r.status.ok()) failures.fetch_add(1);
                         completed.fetch_add(1, std::memory_order_relaxed);
                       });
    ++issued;
    std::this_thread::sleep_for(100us);
  }
  EXPECT_TRUE(net.parked(0));

  // An op issued while parked is admitted but not started: its completion
  // stalls deterministically behind the backpressure.
  net.client().write(Value::from_int64(777),
                     [&](const OpResult& r) {
                       if (!r.status.ok()) failures.fetch_add(1);
                       stalled_done.store(true, std::memory_order_release);
                     });
  ++issued;
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(stalled_done.load(std::memory_order_acquire))
      << "a parked process must not start new operations";

  // Unpause the reader: EPOLLOUT drains process 0's outbuf, admission
  // resumes, everything completes.
  net.set_read_paused(2, false);
  ASSERT_TRUE(eventually([&] {
    return stalled_done.load(std::memory_order_acquire) &&
           completed.load(std::memory_order_relaxed) == issued - 2;
  })) << "completed " << completed.load() << " of " << issued - 2;
  EXPECT_EQ(failures.load(), 0u) << "every write must complete ok";
  EXPECT_TRUE(eventually([&] { return !net.parked(0); }));

  const auto bp = net.backpressure_snapshot();
  EXPECT_GE(bp.park_events, 1u);
  EXPECT_GE(bp.resume_events, 1u);
  EXPECT_GE(bp.deferred_ops, 1u);
  EXPECT_GE(bp.peak_outbuf_bytes, 64u * 1024u);

  // No loss, no reorder: the slow reader catches up on the full FIFO
  // backlog, so a read at process 2 sees the last write (version == total
  // writes) — nothing parked was dropped.
  const OpResult at_slow = net.client().read_sync(2);
  ASSERT_TRUE(at_slow.status.ok());
  EXPECT_EQ(at_slow.version, static_cast<SeqNo>(issued));
  EXPECT_EQ(at_slow.value.to_int64(), 777);
  net.stop();
}

TEST(SocketBackpressureTest, LoopCountResolvesAndMultiLoopStaysHealthy) {
  SocketNetwork::Options opt;
  opt.cfg.n = 5;
  opt.cfg.t = 2;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.loops = 3;
  SocketNetwork net(std::move(opt));
  EXPECT_EQ(net.loop_count(), 3u);
  net.start();
  for (int k = 1; k <= 10; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
  }
  for (ProcessId pid = 0; pid < 5; ++pid) {
    EXPECT_EQ(net.client().read_sync(pid).value.to_int64(), 10);
  }
  const auto bp = net.backpressure_snapshot();
  EXPECT_EQ(bp.parked_now, 0u);
  net.stop();
}

}  // namespace
}  // namespace tbr
