// Connection: one peer channel of the socket runtime — its fd, the two
// FrameBuffer-framed byte streams, and the backpressure state machine.
//
// The problem this type exists for: an unbounded outbuf turns a slow
// reader into an OOM. The old runtime appended frames to a peer's outbuf
// without limit; if the peer stopped draining its socket, every writer
// kept queueing until memory ran out. Here each connection carries
// watermarks: when the queued bytes cross `outbuf_high_water` the
// connection *parks* (paused() goes true) and the owning process stops
// admitting new client operations; EPOLLOUT-driven flushes drain the
// queue, and once it falls to `outbuf_low_water` the connection resumes.
// Frames already queued are never dropped or reordered — backpressure
// stalls producers, it does not touch the stream.
//
// Budgets bound per-readiness-round work so one hot connection cannot
// starve the rest of its event loop: a readiness callback reads at most
// `read_budget` bytes and writes at most `write_budget` bytes, then
// yields (level-triggered epoll re-reports the remainder). A read round
// also ends at the first short read — the socket is empty, so the read(2)
// that would only return EAGAIN is skipped.
//
// Threading: a Connection is owned by exactly one event loop and only
// ever touched from that loop's thread (or from the setup thread before
// the loop starts).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "transport/frame_buffer.hpp"
#include "transport/tcp_socket.hpp"

namespace tbr {

/// Per-connection buffer and budget knobs (SocketNetwork::Options::limits).
struct ConnLimits {
  /// Queued-outbuf bytes at which the connection parks (writer stalls).
  std::size_t outbuf_high_water = 1 << 20;
  /// Queued-outbuf bytes at which a parked connection resumes. Must be
  /// strictly below high water: the gap is the hysteresis that stops the
  /// runtime from flapping park/resume on every frame.
  std::size_t outbuf_low_water = 256 * 1024;
  /// Max bytes read from the socket per readiness round.
  std::size_t read_budget = 256 * 1024;
  /// Max bytes written to the socket per readiness round.
  std::size_t write_budget = 256 * 1024;
  /// When nonzero, shrink every mesh socket's kernel buffers (SO_SNDBUF /
  /// SO_RCVBUF) to this many bytes. Loopback kernel buffers auto-tune into
  /// the megabytes, which can absorb a slow reader's entire backlog before
  /// the userspace outbuf ever crosses high water — backpressure tests set
  /// this small so the watermarks, not the kernel, bound the queue.
  int kernel_buffer_bytes = 0;

  void validate() const;
};

class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  Connection(Connection&&) = default;
  Connection& operator=(Connection&&) = default;

  void configure(const ConnLimits& limits) { limits_ = limits; }
  const ConnLimits& limits() const noexcept { return limits_; }

  /// Take ownership of a connected socket. Any previous channel state
  /// (buffers, park flag) is discarded — this is the rejoin fence.
  void adopt(OwnedFd fd);
  /// Tear the channel down: close the fd, drop both buffers, unpark.
  void close();
  bool alive() const noexcept { return fd_.valid(); }
  int fd() const noexcept { return fd_.get(); }

  // ---- send side -----------------------------------------------------------------

  /// Queue one encoded frame (length prefix added here). Returns true when
  /// this append crossed high water and parked the connection — the caller
  /// owns reacting (stalling its op admission).
  bool queue_frame(std::string_view encoded);

  struct FlushOutcome {
    IoStatus status = IoStatus::kOk;  ///< kClosed: peer gone, tear down
    bool resumed = false;             ///< crossed low water while parked
    std::uint64_t writes = 0;         ///< write(2) calls that moved bytes
  };
  /// Write up to `write_budget` queued bytes. Never blocks; kWouldBlock is
  /// folded into kOk (wants_write() says whether EPOLLOUT is still needed).
  FlushOutcome flush();

  bool wants_write() const noexcept { return queued_bytes() > 0; }
  bool paused() const noexcept { return paused_; }
  std::size_t queued_bytes() const noexcept {
    return outbuf_.size() - out_pos_;
  }

  // ---- receive side --------------------------------------------------------------

  /// Read up to `read_budget` bytes into the inbound frame ring, stopping
  /// early at the first read that returns less than it asked for. Returns
  /// kClosed on EOF/reset, kOk otherwise (partial progress included).
  IoStatus read_budgeted();
  /// Peel the next complete inbound frame (see FrameBuffer::next_frame).
  bool next_frame(std::string_view& frame) { return inbuf_.next_frame(frame); }
  /// The peer announced a frame above FrameBuffer::kMaxFrameBytes: the
  /// stream is unusable and the owner must close the channel.
  bool inbound_overlong() const noexcept { return inbuf_.overlong(); }
  /// Inbound bytes buffered but not yet consumed as frames.
  std::size_t inbuf_pending() const noexcept { return inbuf_.pending_bytes(); }

 private:
  void compact_out();

  OwnedFd fd_;
  FrameBuffer inbuf_;
  /// Outbound stream with a consumed-offset head, mirroring FrameBuffer's
  /// discipline: flushes advance out_pos_ and the sent prefix is folded
  /// out only when it outgrows half the block — O(bytes) amortized, and
  /// the storage is recycled.
  std::string outbuf_;
  std::size_t out_pos_ = 0;
  ConnLimits limits_;
  bool paused_ = false;
};

}  // namespace tbr
