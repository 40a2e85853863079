#include "transport/connection.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace tbr {

void ConnLimits::validate() const {
  TBR_ENSURE(outbuf_low_water < outbuf_high_water,
             "outbuf_low_water must be strictly below outbuf_high_water");
  TBR_ENSURE(outbuf_high_water > 0, "outbuf_high_water must be positive");
  TBR_ENSURE(read_budget > 0, "read_budget must be positive");
  TBR_ENSURE(write_budget > 0, "write_budget must be positive");
}

void Connection::adopt(OwnedFd fd) {
  fd_ = std::move(fd);
  inbuf_.clear();
  outbuf_.clear();
  out_pos_ = 0;
  paused_ = false;
}

void Connection::close() {
  fd_.reset();
  inbuf_.clear();
  outbuf_.clear();
  out_pos_ = 0;
  paused_ = false;
}

bool Connection::queue_frame(std::string_view encoded) {
  FrameBuffer::append_frame(outbuf_, encoded);
  if (!paused_ && queued_bytes() >= limits_.outbuf_high_water) {
    paused_ = true;
    return true;
  }
  return false;
}

Connection::FlushOutcome Connection::flush() {
  FlushOutcome out;
  std::size_t budget = limits_.write_budget;
  while (queued_bytes() > 0 && budget > 0) {
    const std::size_t want = std::min(budget, queued_bytes());
    const auto io = tcp::write_some(fd_.get(), outbuf_.data() + out_pos_, want);
    if (io.status != IoStatus::kOk || io.bytes == 0) {
      if (io.status == IoStatus::kClosed) out.status = IoStatus::kClosed;
      break;  // kWouldBlock: EPOLLOUT resumes; budget spent: next round
    }
    ++out.writes;
    out_pos_ += io.bytes;
    budget -= io.bytes;
  }
  compact_out();
  if (paused_ && out.status != IoStatus::kClosed &&
      queued_bytes() <= limits_.outbuf_low_water) {
    paused_ = false;
    out.resumed = true;
  }
  return out;
}

IoStatus Connection::read_budgeted() {
  std::size_t budget = limits_.read_budget;
  while (budget > 0) {
    const std::size_t want = std::min(budget, tcp::kReadChunkBytes);
    const auto io = tcp::read_some(fd_.get(), inbuf_.tail(), want);
    if (io.status == IoStatus::kClosed) return IoStatus::kClosed;
    if (io.status == IoStatus::kWouldBlock) break;
    budget -= io.bytes;
    // A short read took everything the socket held: stop instead of paying
    // one more read(2) just to hear EAGAIN. Bytes that land later keep the
    // fd readable, and level-triggered epoll reports it again.
    if (io.bytes < want) break;
  }
  return IoStatus::kOk;
}

void Connection::compact_out() {
  if (out_pos_ == 0) return;
  if (out_pos_ == outbuf_.size()) {
    outbuf_.clear();
    out_pos_ = 0;
    return;
  }
  if (out_pos_ > outbuf_.capacity() / 2) {
    outbuf_.erase(0, out_pos_);
    out_pos_ = 0;
  }
}

}  // namespace tbr
