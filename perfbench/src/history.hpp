// Client-side operation history and its atomicity check.
//
// Every workload records each completed operation into a preallocated
// ChunkedLog<ClientOp> owned by the thread that completes it, outside the
// timed cost; SwmrChecker runs over the records after the timed window.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One completed client operation (40 bytes; kv-zipf records millions).
struct ClientOp {
  std::int64_t t0 = 0;     ///< stamp taken before the submit call
  std::int64_t t1 = 0;     ///< stamp taken at completion-callback entry
  std::int64_t value = 0;  ///< written / returned 8-byte payload
  std::int32_t index = 0;  ///< write: version it landed as; read: version read
  std::uint32_t reg = 0;   ///< register id (kv: shard * slots + slot)
  std::uint16_t proc = 0;  ///< sequential client that issued it
  std::uint8_t kind = 0;   ///< kWrite / kRead
  std::uint8_t flags = 0;  ///< kAbsorbed | kInitial

  static constexpr std::uint8_t kWrite = 0;
  static constexpr std::uint8_t kRead = 1;
  static constexpr std::uint8_t kAbsorbed = 1;  ///< put coalesced away
  static constexpr std::uint8_t kInitial = 2;   ///< read returned v0
};

/// Checks each register's history with tbr::SwmrChecker (C0-C3 plus the
/// model-sanity checks). Stamps t0/t1 must be comparable across all
/// records (one clock). Reads count as process 1 + proc, writes as the
/// register's single writer. With `kv_writes`, absorbed puts are checked
/// to report an existing survivor version and then dropped, and each
/// surviving write's start is clamped to its predecessor's completion;
/// see history.cpp for why that is sound. Returns "" when every register
/// is atomic, else the first violation.
std::string check_history(const std::vector<const ChunkedLog<ClientOp>*>& logs,
                          std::uint32_t registers, bool kv_writes);

/// Splits the ops completed in [from, to) (wall-clock ns stamps) into
/// windows of `window_s` seconds: per-window throughput and latencies.
std::vector<Window> windows_of(
    const std::vector<const ChunkedLog<ClientOp>*>& logs, std::int64_t from,
    std::int64_t to, double window_s);

}  // namespace perfbench
