#include "client/client.hpp"

#include <utility>

namespace tbr {

// ---- ClientBase --------------------------------------------------------------

Ticket ClientBase::dispatch(OpState& st) {
  const bool callback_mode = st.callback != nullptr;
  Ticket t;
  if (!callback_mode) {
    t.index = st.index;
    t.gen = st.gen;
  }
  if (serialize_per_node_ && st.node < chains_.size()) {
    bool queued = false;
    {
      const std::scoped_lock lock(pool_.mu());
      Chain& chain = chains_[st.node];
      if (chain.busy) {
        st.next_pending = Ticket::kEmpty;
        if (chain.tail == Ticket::kEmpty) {
          chain.head = st.index;
        } else {
          pool_.slot(chain.tail).next_pending = st.index;
        }
        chain.tail = st.index;
        queued = true;
      } else {
        chain.busy = true;
      }
    }
    if (queued) return t;
  }
  engine_issue(st);
  return t;
}

void ClientBase::complete(OpState& st) {
  if (st.abandoned) {
    // Late completion of an op whose wait() already gave up (sim liveness
    // loss): nobody is listening any more, just free the quarantined slot.
    pool_.reclaim_abandoned(st);
    return;
  }
  const bool callback_mode = st.callback != nullptr;
  if (callback_mode) {
    OpCallback cb = std::move(st.callback);
    st.callback = nullptr;
    cb(st.result);
  }
  std::uint32_t next = Ticket::kEmpty;
  {
    const std::scoped_lock lock(pool_.mu());
    if (serialize_per_node_ && st.node < chains_.size()) {
      Chain& chain = chains_[st.node];
      if (chain.head != Ticket::kEmpty) {
        next = chain.head;
        chain.head = pool_.slot(next).next_pending;
        if (chain.head == Ticket::kEmpty) chain.tail = Ticket::kEmpty;
      } else {
        chain.busy = false;
      }
    }
    if (callback_mode) pool_.release_locked(st);
  }
  if (!callback_mode) pool_.mark_ready(st);
  if (next != Ticket::kEmpty) issue_chained(next);
}

void ClientBase::issue_chained(std::uint32_t first) {
  {
    const std::scoped_lock lock(pool_.mu());
    deferred_issues_.push_back(first);
    // Someone (an outer frame of this very cascade, or a concurrent
    // completion thread) already owns the drain loop: it will pick this
    // up. Returning here is what bounds the cascade's stack depth.
    if (unwinding_) return;
    unwinding_ = true;
  }
  for (;;) {
    OpState* st = nullptr;
    {
      const std::scoped_lock lock(pool_.mu());
      if (deferred_head_ == deferred_issues_.size()) {
        deferred_issues_.clear();
        deferred_head_ = 0;
        unwinding_ = false;
        return;
      }
      // Resolve the slot under the lock: a concurrent acquire() may be
      // growing the pool's deque, which rewrites the index map that
      // slot() reads (the slots themselves never move).
      st = &pool_.slot(deferred_issues_[deferred_head_++]);
    }
    // May complete synchronously (terminal engine paths), re-entering
    // complete() -> issue_chained(), which defers to this loop.
    engine_issue(*st);
  }
}

OpResult ClientBase::wait(Ticket t) {
  OpState* st = pool_.find(t);
  TBR_ENSURE(st != nullptr, "wait on an empty, stale or consumed ticket");
  if (!st->ready.load(std::memory_order_acquire)) engine_park(*st);
  if (!st->ready.load(std::memory_order_acquire)) {
    // The drive failed (liveness lost). The engine stamped a status; the
    // slot is quarantined in case its completion fires on a later drive.
    OpResult out = st->result;
    if (out.status.ok()) {
      out.status = Status(StatusCode::kLivenessLost,
                          "operation did not complete (liveness lost)");
    }
    pool_.abandon(*st);
    return out;
  }
  OpResult out = st->result;
  pool_.release(*st);
  return out;
}

bool ClientBase::try_result(Ticket t, OpResult& out) {
  OpState* st = pool_.find(t);
  TBR_ENSURE(st != nullptr, "poll on an empty, stale or consumed ticket");
  if (!st->ready.load(std::memory_order_acquire)) return false;
  out = st->result;
  pool_.release(*st);
  return true;
}

// ---- RegisterClient ----------------------------------------------------------

RegisterClient::RegisterClient(RegisterClientEngine& engine, std::uint32_t n,
                               ProcessId writer)
    : ClientBase(/*serialize_per_node=*/true),
      engine_(engine),
      n_(n),
      writer_(writer) {
  init_chains(n);
}

ProcessId RegisterClient::pick_reader() {
  for (std::uint32_t tries = 0; tries < n_; ++tries) {
    const ProcessId r = static_cast<ProcessId>(
        next_reader_.fetch_add(1, std::memory_order_relaxed) % n_);
    if (!engine_.client_crashed(r)) return r;
  }
  return 0;
}

Ticket RegisterClient::write(Value v, OpCallback cb) {
  OpState& st = fresh_op();
  st.kind = OpKind::kWrite;
  st.node = writer_;
  st.value = std::move(v);
  st.callback = std::move(cb);
  return dispatch(st);
}

Ticket RegisterClient::read(ProcessId reader, OpCallback cb) {
  TBR_ENSURE(reader == kAnyReplica || reader < n_,
             "reader id out of range");
  OpState& st = fresh_op();
  st.kind = OpKind::kRead;
  st.node = reader == kAnyReplica ? pick_reader() : reader;
  st.callback = std::move(cb);
  return dispatch(st);
}

std::size_t RegisterClient::submit(std::span<RegisterOp> ops,
                                   Ticket* tickets) {
  std::size_t k = 0;
  for (RegisterOp& op : ops) {
    const Ticket t = op.kind == OpKind::kWrite ? write(std::move(op.value))
                                               : read(op.reader);
    if (tickets != nullptr) tickets[k] = t;
    ++k;
  }
  return k;
}

// ---- KvClient ----------------------------------------------------------------

KvClient::KvClient(KvClientEngine& engine)
    : ClientBase(/*serialize_per_node=*/false), engine_(engine) {}

Ticket KvClient::put(std::string_view key, Value value, OpCallback cb) {
  OpState& st = fresh_op();
  st.kind = OpKind::kWrite;
  st.value = std::move(value);
  st.callback = std::move(cb);
  engine_.client_route(key, st);
  return dispatch(st);
}

Ticket KvClient::get(std::string_view key, ProcessId reader, OpCallback cb) {
  OpState& st = fresh_op();
  st.kind = OpKind::kRead;
  st.node = reader;
  st.callback = std::move(cb);
  engine_.client_route(key, st);
  return dispatch(st);
}

std::size_t KvClient::submit(std::span<KvOp> ops, Ticket* tickets) {
  std::size_t k = 0;
  for (KvOp& op : ops) {
    const Ticket t = op.kind == OpKind::kWrite
                         ? put(op.key, std::move(op.value))
                         : get(op.key, op.reader);
    if (tickets != nullptr) tickets[k] = t;
    ++k;
  }
  return k;
}

}  // namespace tbr
