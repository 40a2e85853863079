// RegisterClient / KvClient: one client API for every engine in the tree.
//
// The repo grew four incompatible client surfaces — a flat store's
// blocking put/get (exceptions), ShardedKvStore's promise-backed futures
// (~4 allocations per op), ThreadNetwork's callback/future split, and
// SimRegisterGroup's raw std::function hooks. This layer replaces all of
// them with a single completion model:
//
//   * submit an operation -> get a Ticket (or attach an OpCallback and the
//     pooled state auto-recycles after it runs);
//   * wait(ticket) blocks (thread engines) or drives the event loop (sim
//     engines) until the op completes and returns a uniform OpResult
//     carrying a Status — never an exception, never a static string;
//   * submit(span<Op>) hands a whole window to the engine at once — the kv
//     engine feeds it into MuxProcess::start_batch (shared read rounds,
//     last-write-wins coalescing), the register engines pipeline it
//     through per-process chains.
//
// Per-operation cost is the design target, extending the allocs-per-frame
// discipline to allocs-per-operation: OpStates recycle through OpPool, all
// engine-facing callbacks capture at most two pointers (std::function's
// inline storage), so a steady-state operation through the Ticket
// convenience API allocates nothing (sim and threaded engines; the sharded
// engine's cross-thread window bookkeeping stays <= 1 allocation per op).
// tests/alloc_regression_test.cpp and bench_engine_hotpath gate this.
//
// Engines plug in via the small *ClientEngine interfaces below; the
// facades (SimRegisterGroup, ThreadNetwork, SocketNetwork, ShardedKvStore)
// each expose a client() backed by their implementation, and client() is
// the only way an operation enters any of them. The register engines
// supply only issue, park and a crashed query: writer routing and
// kAnyReplica rotation live once, in RegisterClient.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "client/op.hpp"

namespace tbr {

/// Shared machinery: the op pool, per-node submission chains, the
/// wait/poll surface, and the engine-facing completion entry point.
class ClientBase {
 public:
  virtual ~ClientBase() = default;
  ClientBase(const ClientBase&) = delete;
  ClientBase& operator=(const ClientBase&) = delete;

  /// Block until the ticket's operation completes (drives the simulator
  /// for sim-backed engines), return its result and recycle the slot. The
  /// ticket is consumed: waiting twice on the same ticket is a contract
  /// violation. The result's Value is copied out, so the pooled buffer
  /// keeps its capacity (callers that must avoid the copy for large
  /// payloads should use the callback form instead).
  OpResult wait(Ticket t);

  /// Non-blocking poll: if the op has completed, copy its result into
  /// `out`, recycle the slot (consuming the ticket) and return true.
  bool try_result(Ticket t, OpResult& out);

  // ---- engine side ---------------------------------------------------------
  /// Completion entry point: the engine has filled `st.result` (and is done
  /// touching `st`). Runs the user callback if any, publishes readiness or
  /// auto-recycles (callback mode), and issues the next chained op bound
  /// for the same process. Runs on the engine's completion thread.
  void complete(OpState& st);
  /// Shorthand for ops that fail before reaching the protocol.
  void complete_failed(OpState& st, Status status) {
    st.result.status = status;
    complete(st);
  }

  OpPool& pool() noexcept { return pool_; }

 protected:
  explicit ClientBase(bool serialize_per_node)
      : serialize_per_node_(serialize_per_node) {}

  /// Acquire + stamp a pooled op for this client.
  OpState& fresh_op() {
    OpState& st = pool_.acquire();
    st.owner = this;
    return st;
  }

  /// Hand a prepared op to the engine, honoring the per-node chains.
  /// Returns the caller-facing ticket (empty in callback mode).
  Ticket dispatch(OpState& st);

  /// Issue a chained successor without recursing: engines fail ops
  /// synchronously on their terminal paths (crashed target, closed
  /// queue), and that completion pops the NEXT chain entry — a deeply
  /// pipelined chain unwinding at shutdown must drain as a loop, not as
  /// mutual recursion complete() -> engine_issue() -> complete().
  void issue_chained(std::uint32_t first);

  // Engine hooks, implemented by the concrete client over its engine.
  virtual void engine_issue(OpState& st) = 0;
  virtual void engine_park(OpState& st) = 0;

  /// Size the per-node chains (register engines; kv engines skip them).
  void init_chains(std::uint32_t nodes) { chains_.resize(nodes); }

  OpPool pool_;

 private:
  /// Per-process FIFO of submitted-but-not-issued ops, linked intrusively
  /// through OpState::next_pending. The engines' processes admit one
  /// operation at a time (the model's sequential-process contract); the
  /// chain is what lets submit(span) pipeline safely anyway.
  struct Chain {
    std::uint32_t head = Ticket::kEmpty;
    std::uint32_t tail = Ticket::kEmpty;
    bool busy = false;
  };

  bool serialize_per_node_ = false;
  std::vector<Chain> chains_;

  // Chained-issue drain state (guarded by the pool mutex): one thread at
  // a time owns the drain loop; completions landing mid-drain (including
  // the synchronous-failure cascade) defer here instead of recursing.
  // The vector recycles its capacity — steady state allocates nothing.
  bool unwinding_ = false;
  std::size_t deferred_head_ = 0;
  std::vector<std::uint32_t> deferred_issues_;
};

// ---- the register-group client ----------------------------------------------

/// One operation against a single register group (for submit(span)).
struct RegisterOp {
  OpKind kind = OpKind::kRead;
  Value value;                    ///< writes: payload (moved from)
  ProcessId reader = kAnyReplica; ///< reads: replica (kAnyReplica = rotate)
};

/// What a runtime facade implements to host a RegisterClient.
class RegisterClientEngine {
 public:
  virtual ~RegisterClientEngine() = default;
  /// Issue `st` into the runtime; on completion fill st.result and call
  /// st.owner->complete(st).
  virtual void client_issue(OpState& st) = 0;
  /// Block until st.ready: drive the event loop (sim) or park on the pool
  /// (threads). On a failed drive, fill st.result.status and return.
  virtual void client_park(OpState& st, OpPool& pool) = 0;
  /// Whether `pid` looks crashed (steers kAnyReplica reads away from it).
  virtual bool client_crashed(ProcessId pid) const = 0;
};

class RegisterClient final : public ClientBase {
 public:
  /// A client of the `n`-process group whose single writer is `writer`.
  RegisterClient(RegisterClientEngine& engine, std::uint32_t n,
                 ProcessId writer);

  /// Start REG.write(v) at the group's writer.
  Ticket write(Value v, OpCallback cb = {});
  /// Start REG.read() at `reader` (kAnyReplica = rotate over live nodes).
  Ticket read(ProcessId reader = kAnyReplica, OpCallback cb = {});

  /// Pipelined batch: ops are issued in order, serialized per process via
  /// the client chains (values are moved from `ops`). `tickets`, when
  /// non-null, receives one ticket per op (ops.size() entries).
  std::size_t submit(std::span<RegisterOp> ops, Ticket* tickets = nullptr);

  // Blocking round-trips (steady-state allocation-free for SSO payloads).
  OpResult write_sync(Value v) { return wait(write(std::move(v))); }
  OpResult read_sync(ProcessId reader = kAnyReplica) {
    return wait(read(reader));
  }

 protected:
  void engine_issue(OpState& st) override { engine_.client_issue(st); }
  void engine_park(OpState& st) override { engine_.client_park(st, pool_); }

 private:
  /// Round-robin over live-looking replicas for kAnyReplica reads. Falls
  /// back to replica 0 when every replica looks crashed (the op then fails
  /// with kCrashed at issue). Safe from any thread; on the single-threaded
  /// sim engine the relaxed counter degenerates to a plain increment, so
  /// the rotation sequence stays deterministic.
  ProcessId pick_reader();

  RegisterClientEngine& engine_;
  std::uint32_t n_;
  ProcessId writer_;
  std::atomic<std::uint32_t> next_reader_{0};
};

// ---- the key-value client ----------------------------------------------------

/// One operation against a kv store (for submit(span)). The key is only
/// read during submit (routing); it does not need to outlive the call.
struct KvOp {
  OpKind kind = OpKind::kRead;
  std::string_view key;
  Value value;                     ///< puts: payload (moved from)
  ProcessId reader = kAnyReplica;  ///< gets: replica within the key's group
};

/// What a kv engine implements to host a KvClient.
class KvClientEngine {
 public:
  virtual ~KvClientEngine() = default;
  /// Resolve `key` into st.shard / st.slot / st.node (puts: home replica;
  /// gets: leave st.node as requested, kAnyReplica resolves at issue).
  virtual void client_route(std::string_view key, OpState& st) = 0;
  virtual void client_issue(OpState& st) = 0;
  virtual void client_park(OpState& st, OpPool& pool) = 0;
};

class KvClient final : public ClientBase {
 public:
  explicit KvClient(KvClientEngine& engine);

  /// Store `value` under `key` (executed at the key's home replica).
  Ticket put(std::string_view key, Value value, OpCallback cb = {});
  /// Read `key` at `reader` within its group (kAnyReplica = rotate).
  Ticket get(std::string_view key, ProcessId reader = kAnyReplica,
             OpCallback cb = {});

  /// Batch window: every op routed and handed to the engine together, so
  /// the sharded store's workers can fold them into one mailbox window.
  /// Values/keys are consumed.
  std::size_t submit(std::span<KvOp> ops, Ticket* tickets = nullptr);

  // Blocking round-trips.
  OpResult put_sync(std::string_view key, Value value) {
    return wait(put(key, std::move(value)));
  }
  OpResult get_sync(std::string_view key, ProcessId reader = kAnyReplica) {
    return wait(get(key, reader));
  }

 protected:
  void engine_issue(OpState& st) override { engine_.client_issue(st); }
  void engine_park(OpState& st) override { engine_.client_park(st, pool_); }

 private:
  KvClientEngine& engine_;
};

}  // namespace tbr
