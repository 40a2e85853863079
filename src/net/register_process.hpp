// RegisterProcessBase: the public API every register implementation
// (the paper's two-bit algorithm and the three ABD-family baselines) offers.
//
// One process in the group is the writer; every process can read. Operations
// are asynchronous: callers pass a completion callback, which the runtime's
// facade layer adapts into blocking calls (simulator) or futures (threads).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/contracts.hpp"
#include "common/ids.hpp"
#include "common/value.hpp"
#include "net/codec.hpp"
#include "net/process.hpp"

namespace tbr {

/// Static configuration of a register group.
struct GroupConfig {
  std::uint32_t n = 0;       ///< number of processes
  std::uint32_t t = 0;       ///< crash-fault budget; must satisfy 2t < n
  ProcessId writer = 0;      ///< the single writer p_w
  Value initial;             ///< v0, the register's initial value

  /// Two-bit algorithm only: let the writer serve reads locally from
  /// history[w_sync[w]] (the remark on Fig. 1 line 5 of the paper).
  bool writer_fast_read = false;

  void validate() const {
    TBR_ENSURE(n >= 1, "group needs at least one process");
    TBR_ENSURE(2 * t < n, "atomic registers require t < n/2 (ABD bound)");
    TBR_ENSURE(writer < n, "writer id out of range");
  }

  /// Quorum size n - t used by every wait-for-quorum in the algorithms.
  std::uint32_t quorum() const { return n - t; }
};

class RegisterProcessBase : public ProcessBase {
 public:
  using WriteDone = std::function<void()>;
  /// Reads report the returned value plus its history index (the paper's
  /// sequence number x of read[i,x]); the index feeds the atomicity checker
  /// and is not part of the register abstraction itself.
  using ReadDone = std::function<void(const Value& value, SeqNo index)>;

  RegisterProcessBase(GroupConfig cfg, ProcessId self);

  /// Begin REG.write(v). Caller must be the writer, with no operation in
  /// flight on this process (the model's processes are sequential).
  virtual void start_write(NetworkContext& net, Value v, WriteDone done) = 0;

  /// Begin REG.read().
  virtual void start_read(NetworkContext& net, ReadDone done) = 0;

  /// Bytes of protocol state currently resident (Table 1 line 4).
  virtual std::uint64_t local_memory_bytes() const = 0;

  /// The wire format this implementation speaks.
  virtual const Codec& codec() const = 0;

  bool is_writer() const noexcept { return self_ == cfg_.writer; }
  ProcessId self_id() const noexcept { return self_; }
  const GroupConfig& config() const noexcept { return cfg_; }

 protected:
  /// Guard helpers for the "one operation at a time per process" contract.
  void begin_operation(const char* what);
  void end_operation();
  bool operation_in_progress() const noexcept { return op_in_progress_; }

  GroupConfig cfg_;
  ProcessId self_;

 private:
  bool op_in_progress_ = false;
};

/// Builds process `pid` of the group `cfg`: how every runtime, the model
/// checker and the keyspace mux are told which register to run.
using RegisterFactory = std::function<std::unique_ptr<RegisterProcessBase>(
    const GroupConfig& cfg, ProcessId pid)>;

}  // namespace tbr
