// FrameBuffer: the socket runtime's inbound byte buffer, as a consumed-
// offset ring.
//
// tcp::read_some appends raw stream bytes at the tail; next_frame() peels
// length-prefixed frames off the head by advancing a read offset. The
// previous implementation erased the consumed prefix out of the string
// after every drain (`inbuf.erase(0, pos)`), which memmoves the entire
// unconsumed remainder — O(buffer) per drain, quadratic when one large
// buffered read delivers many small frames. Here the consumed prefix is
// dropped only when it outgrows half of the allocated block (and for free
// when the buffer drains completely), so consuming a frame costs O(frame)
// amortized and the storage is recycled like every other hot-path buffer
// in the tree.
//
// Length prefixes come from peers, so they are not trusted: a prefix above
// kMaxFrameBytes marks the buffer overlong() and no further frame is
// produced (the stream cannot be resynchronized). Without the cap one
// forged prefix would make the loop buffer up to 4 GiB for it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tbr {

class FrameBuffer {
 public:
  /// Largest payload a peer may announce: far above any frame the
  /// protocols send (a register value plus a few control bytes).
  static constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

  /// The tail storage new stream bytes are appended onto (hand this to
  /// tcp::read_some). Only ever append; the head is managed here.
  std::string& tail() noexcept { return buf_; }

  /// If a complete length-prefixed frame is buffered, set `frame` to its
  /// payload, consume it, and return true. The view stays valid until the
  /// next call against this buffer (consumption only moves the offset;
  /// compaction happens between frames, never under a live view).
  /// A frame whose prefix exceeds kMaxFrameBytes is never consumed: this
  /// returns false and overlong() turns true.
  bool next_frame(std::string_view& frame) {
    maybe_compact();
    if (overlong_ || buf_.size() - pos_ < kHeader) return false;
    const std::uint32_t len = peek_len();
    if (len > kMaxFrameBytes) {
      overlong_ = true;
      return false;
    }
    if (buf_.size() - pos_ < kHeader + len) return false;
    frame = std::string_view(buf_).substr(pos_ + kHeader, len);
    pos_ += kHeader + len;
    return true;
  }

  /// Append one length-prefixed frame (the sender-side encoding).
  static void append_frame(std::string& out, std::string_view payload) {
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
    }
    out.append(payload);
  }

  /// Unconsumed bytes (0 = fully drained).
  std::size_t pending_bytes() const noexcept { return buf_.size() - pos_; }
  /// Consumed prefix currently awaiting compaction.
  std::size_t read_offset() const noexcept { return pos_; }
  /// How many times the consumed prefix was actually memmoved out — the
  /// amortization the ring buys (the old code compacted once per drain).
  std::uint64_t compactions() const noexcept { return compactions_; }
  /// A length prefix above kMaxFrameBytes arrived; cleared by clear().
  bool overlong() const noexcept { return overlong_; }

  void clear() {
    buf_.clear();
    pos_ = 0;
    overlong_ = false;
  }

 private:
  static constexpr std::size_t kHeader = 4;

  std::uint32_t peek_len() const {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(buf_[pos_ + i]))
           << (8 * i);
    }
    return v;
  }

  void maybe_compact() {
    if (pos_ == 0) return;
    if (pos_ == buf_.size()) {
      // Fully drained: reset both ends for free, capacity retained.
      buf_.clear();
      pos_ = 0;
      return;
    }
    if (pos_ > buf_.capacity() / 2) {
      // The consumed prefix owns more than half the block: fold the live
      // remainder down. Amortized O(1) per consumed byte.
      buf_.erase(0, pos_);
      pos_ = 0;
      ++compactions_;
    }
  }

  std::string buf_;
  std::size_t pos_ = 0;
  std::uint64_t compactions_ = 0;
  bool overlong_ = false;
};

}  // namespace tbr
