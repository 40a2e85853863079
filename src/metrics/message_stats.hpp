// Wire accounting: message counts and control/data bit tallies.
//
// This is the measurement instrument behind Table 1 lines 1-3. Every network
// (simulated or threaded) owns one MessageStats and records each frame as it
// is handed to the transport. Counters can be snapshotted and diffed so a
// bench can attribute traffic to a single operation window.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/ids.hpp"

namespace tbr {

/// One frame's accounting as computed by the owning algorithm's codec.
struct WireAccounting {
  std::uint64_t control_bits = 0;  ///< type + any seqno/label fields
  std::uint64_t data_bits = 0;     ///< register value payload, if present
};

/// Aggregated tallies; index by algorithm-local message-type id (0..15).
class MessageStats {
 public:
  static constexpr std::size_t kMaxTypes = 16;

  void record_send(std::uint8_t type, const WireAccounting& wire);
  void record_drop(std::uint8_t type);  ///< destination crashed

  std::uint64_t total_sent() const noexcept { return total_sent_; }
  std::uint64_t total_dropped() const noexcept { return total_dropped_; }
  std::uint64_t sent_of_type(std::uint8_t type) const;

  std::uint64_t total_control_bits() const noexcept { return control_bits_; }
  std::uint64_t total_data_bits() const noexcept { return data_bits_; }
  /// Largest control-bit count seen on any single frame (Table 1 line 3).
  std::uint64_t max_control_bits_per_msg() const noexcept {
    return max_control_bits_;
  }

  /// Local-memory gauge (the Table 1 line 4 companion): owners record the
  /// max per-process local_memory_bytes() at quiescent points — the sim
  /// after settle(), the runtimes at stop(). Gauges, not counters: `last`
  /// is the most recent record, `peak` the high-water mark.
  void record_local_memory(std::uint64_t bytes);
  std::uint64_t local_memory_peak() const noexcept {
    return local_memory_peak_;
  }
  std::uint64_t local_memory_last() const noexcept {
    return local_memory_last_;
  }

  /// Value-semantics snapshot for windowed measurements.
  MessageStats snapshot() const { return *this; }
  /// Per-field difference (this - earlier); counters are monotone.
  MessageStats diff_since(const MessageStats& earlier) const;
  /// Fold another tally in (runtimes that count per process merge their
  /// parts into one snapshot): counters add, the per-frame control-bit
  /// max and both local-memory gauges take the larger value — for gauges
  /// recorded per process at the same quiescent point, that is the group
  /// figure a single shared tally would have recorded.
  void merge(const MessageStats& other);

  void reset();

 private:
  std::array<std::uint64_t, kMaxTypes> sent_by_type_{};
  std::uint64_t total_sent_ = 0;
  std::uint64_t total_dropped_ = 0;
  std::uint64_t control_bits_ = 0;
  std::uint64_t data_bits_ = 0;
  std::uint64_t max_control_bits_ = 0;
  std::uint64_t local_memory_peak_ = 0;
  std::uint64_t local_memory_last_ = 0;
};

}  // namespace tbr
