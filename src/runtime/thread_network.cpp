#include "runtime/thread_network.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace tbr {

using Clock = std::chrono::steady_clock;

namespace {
constexpr Status kCrashedStatus{StatusCode::kCrashed, "process has crashed"};
constexpr Status kShutdownStatus{StatusCode::kShutdown,
                                 "network is shut down"};
constexpr Status kNotStartedStatus{StatusCode::kShutdown,
                                   "network is not started"};
}  // namespace

// ---- ProcessHost: one process, its mailbox, its thread ----------------------

class ThreadNetwork::ProcessHost final : public NetworkContext {
 public:
  ProcessHost(ThreadNetwork& net, ProcessId pid,
              std::unique_ptr<RegisterProcessBase> proc)
      : net_(net), pid_(pid), proc_(std::move(proc)) {}

  // NetworkContext (called from the process thread inside handlers).
  void send(ProcessId to, const Message& msg) override {
    net_.dispatch(pid_, to, msg);
  }
  ProcessId self() const override { return pid_; }
  std::uint32_t process_count() const override { return net_.cfg_.n; }
  Tick now() const override { return net_.now(); }
  void schedule(Tick delay, std::function<void()> fn) override {
    net_.schedule_timer(pid_, delay, std::move(fn));
  }
  void fence_peer(ProcessId to) override {
    // Runs on this host's loop thread (inside a handler): re-establish our
    // send side toward `to`, so frames we sent before this point die.
    net_.chan_epoch(pid_, to).fetch_add(1, std::memory_order_release);
  }

  Mailbox& mailbox() noexcept { return mailbox_; }
  RegisterProcessBase& process() noexcept { return *proc_; }
  bool crashed() const noexcept {
    return crashed_.load(std::memory_order_acquire);
  }

  void run(std::stop_token st) {
    while (auto env = mailbox_.pop(st)) {
      handle(std::move(*env));
    }
    // Shutdown: the op still in the protocol will never complete. Fail it;
    // its chained successors then bounce off the closed mailboxes.
    if (pending_op_ != nullptr) {
      OpState& op = take_pending();
      op.owner->complete_failed(op, kShutdownStatus);
    }
  }

 private:
  void handle(Envelope env) {
    if (crashed()) {
      // The one envelope a dead process still honours is its own rebirth.
      if (auto* r = std::get_if<RecoverEnvelope>(&env)) {
        handle_one(std::move(*r));
        return;
      }
      fail_if_request(env);
      return;
    }
    std::visit(
        [this](auto&& e) { this->handle_one(std::forward<decltype(e)>(e)); },
        std::move(env));
  }

  static void fail_if_request(Envelope& env) {
    if (auto* o = std::get_if<OpEnvelope>(&env)) {
      o->op->owner->complete_failed(*o->op, kCrashedStatus);
    }
  }

  void handle_one(DeliverEnvelope e) {
    if (e.epoch !=
        net_.chan_epoch(e.from, pid_).load(std::memory_order_acquire)) {
      // The from->us channel was re-established after this frame was
      // stamped (a rejoin or a fence): it belongs to a dead connection.
      net_.record_fenced_drop();
      net_.recycle_buffer(std::move(e.encoded));
      return;
    }
    // Decode into the host's scratch Message: large payloads land in the
    // scratch value's recycled buffer instead of a fresh string per frame.
    proc_->codec().decode_into(e.encoded, inbound_);
    // The wire buffer's job is done; hand its capacity back to the pool
    // before the handler runs (its sends will want encode buffers).
    net_.recycle_buffer(std::move(e.encoded));
    proc_->on_message(*this, e.from, inbound_);
  }

  void handle_one(OpEnvelope e) {
    OpState& st = *e.op;
    st.start = net_.now();
    pending_op_ = &st;
    // The completions capture only `this`: std::function inline storage,
    // no allocation.
    if (st.kind == OpKind::kWrite) {
      proc_->start_write(*this, std::move(st.value), [this] {
        OpState& op = take_pending();
        op.result.latency = net_.now() - op.start;
        op.owner->complete(op);
      });
    } else {
      proc_->start_read(*this, [this](const Value& v, SeqNo index) {
        OpState& op = take_pending();
        op.result.value = v;  // copy into the pooled capacity
        op.result.version = index;
        op.result.latency = net_.now() - op.start;
        op.owner->complete(op);
      });
    }
  }

  void handle_one(CrashEnvelope) {
    crashed_.store(true, std::memory_order_release);
    proc_->on_crash();
    // The model says a faulty process's last operation may never take
    // effect (§2.2); its *client* still must not wait forever. Fail the
    // in-flight op — the algorithm will never complete it.
    if (pending_op_ != nullptr) {
      OpState& op = take_pending();
      op.owner->complete_failed(op, kCrashedStatus);
    }
  }

  void handle_one(RecoverEnvelope e) {
    // Re-establish every channel touching us: frames stamped before these
    // bumps are dead on arrival wherever they are queued.
    for (ProcessId peer = 0; peer < net_.cfg_.n; ++peer) {
      if (peer == pid_) continue;
      net_.chan_epoch(pid_, peer).fetch_add(1, std::memory_order_release);
      net_.chan_epoch(peer, pid_).fetch_add(1, std::memory_order_release);
    }
    proc_ = e.make(net_.cfg_, pid_);
    TBR_ENSURE(proc_ != nullptr, "recover factory returned null");
    crashed_.store(false, std::memory_order_release);
    proc_->on_start(*this);  // a rejoiner broadcasts CATCHUP here
  }

  void handle_one(TimerEnvelope e) {
    if (e.fn) e.fn();
  }

  OpState& take_pending() {
    OpState& op = *pending_op_;
    pending_op_ = nullptr;
    return op;
  }

  ThreadNetwork& net_;
  ProcessId pid_;
  std::unique_ptr<RegisterProcessBase> proc_;
  Mailbox mailbox_;
  Message inbound_;  ///< decode_into scratch (loop thread only)
  std::atomic<bool> crashed_{false};
  // The in-flight client operation (loop thread only): completed by the
  // protocol or failed by a crash, whichever comes first.
  OpState* pending_op_ = nullptr;
};

// ---- ThreadNetwork -----------------------------------------------------------

ThreadNetwork::ThreadNetwork(Options options)
    : cfg_(options.cfg),
      opt_(options),
      factories_(resolve_factories(options.algo,
                                   std::move(options.process_factory),
                                   std::move(options.recover_factory))),
      client_(*this, cfg_.n, cfg_.writer),
      chan_epoch_(new std::atomic<std::uint32_t>[static_cast<std::size_t>(
          options.cfg.n) * options.cfg.n]()),
      delay_rng_(options.seed ^ 0xD15417C4E5ULL),
      epoch_(Clock::now()) {
  cfg_.validate();
  TBR_ENSURE(opt_.min_delay_us <= opt_.max_delay_us,
             "need min_delay <= max_delay");
  hosts_.reserve(cfg_.n);
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    hosts_.push_back(std::make_unique<ProcessHost>(
        *this, pid, factories_.start(cfg_, pid)));
  }
}

ThreadNetwork::~ThreadNetwork() { stop(); }

Tick ThreadNetwork::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void ThreadNetwork::start() {
  TBR_ENSURE(!stopped_, "network cannot be restarted");
  if (started_) return;
  started_ = true;
  threads_.reserve(cfg_.n + 1);
  for (auto& host : hosts_) {
    threads_.emplace_back(
        [h = host.get()](std::stop_token st) { h->run(st); });
  }
  threads_.emplace_back([this](std::stop_token st) { dispatcher_loop(st); });
}

void ThreadNetwork::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& host : hosts_) host->mailbox().close();
  dispatch_cv_.notify_all();
  for (auto& th : threads_) th.request_stop();
  threads_.clear();  // jthread joins on destruction
  // Loop threads are joined: process state is safe to read. Record the
  // final local-memory gauge next to the wire tallies.
  std::uint64_t peak = 0;
  for (auto& host : hosts_) {
    peak = std::max(peak, host->process().local_memory_bytes());
  }
  const std::scoped_lock lock(stats_mu_);
  stats_.record_local_memory(peak);
}

std::string ThreadNetwork::take_buffer() {
  const std::scoped_lock lock(buffer_mu_);
  if (buffer_pool_.empty()) return std::string();
  std::string buf = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  return buf;
}

void ThreadNetwork::recycle_buffer(std::string&& buf) {
  const std::scoped_lock lock(buffer_mu_);
  if (buffer_pool_.size() < kMaxPooledBuffers) {
    buffer_pool_.push_back(std::move(buf));
  }
}

void ThreadNetwork::dispatch(ProcessId from, ProcessId to,
                             const Message& msg) {
  TBR_ENSURE(to < cfg_.n && to != from, "bad destination");
  {
    const std::scoped_lock lock(stats_mu_);
    stats_.record_send(msg.type, msg.wire);
    if (hosts_[to]->crashed()) {
      stats_.record_drop(msg.type);
      return;
    }
  }
  std::string encoded = take_buffer();
  hosts_[from]->process().codec().encode_into(msg, encoded);
  {
    const std::scoped_lock lock(dispatch_mu_);
    const Tick jitter_us = opt_.max_delay_us == 0
                               ? 0
                               : delay_rng_.uniform(opt_.min_delay_us,
                                                    opt_.max_delay_us);
    PendingFrame frame;
    frame.release_at = now() + jitter_us * 1000;
    frame.seq = frame_seq_++;
    frame.from = from;
    frame.to = to;
    frame.encoded = std::move(encoded);
    frame.epoch = chan_epoch(from, to).load(std::memory_order_acquire);
    frame_heap_.push_back(std::move(frame));
    std::push_heap(frame_heap_.begin(), frame_heap_.end(),
                   std::greater<>{});
  }
  dispatch_cv_.notify_one();
}

void ThreadNetwork::schedule_timer(ProcessId pid, Tick delay,
                                   std::function<void()> fn) {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  TBR_ENSURE(delay > 0, "timer delay must be positive");
  {
    const std::scoped_lock lock(dispatch_mu_);
    PendingFrame frame;
    frame.release_at = now() + delay;
    frame.seq = frame_seq_++;
    frame.from = pid;
    frame.to = pid;
    frame.timer = std::move(fn);
    frame_heap_.push_back(std::move(frame));
    std::push_heap(frame_heap_.begin(), frame_heap_.end(), std::greater<>{});
  }
  dispatch_cv_.notify_one();
}

void ThreadNetwork::dispatcher_loop(std::stop_token st) {
  std::unique_lock lock(dispatch_mu_);
  while (!st.stop_requested()) {
    if (frame_heap_.empty()) {
      dispatch_cv_.wait(lock, st, [this] { return !frame_heap_.empty(); });
      if (st.stop_requested()) return;
      continue;
    }
    const Tick release_at = frame_heap_.front().release_at;
    const Tick current = now();
    if (current < release_at) {
      dispatch_cv_.wait_for(
          lock, st, std::chrono::nanoseconds(release_at - current),
          [this, release_at] {
            return !frame_heap_.empty() &&
                   frame_heap_.front().release_at < release_at;
          });
      continue;
    }
    std::pop_heap(frame_heap_.begin(), frame_heap_.end(), std::greater<>{});
    PendingFrame frame = std::move(frame_heap_.back());
    frame_heap_.pop_back();
    lock.unlock();
    if (frame.timer) {
      // Timer expiry: runs on the owning process's thread like any handler;
      // the crashed check in ProcessHost::handle suppresses it post-crash.
      hosts_[frame.to]->mailbox().push(TimerEnvelope{std::move(frame.timer)});
    } else {
      const bool delivered = hosts_[frame.to]->mailbox().push(
          DeliverEnvelope{frame.from, std::move(frame.encoded),
                          frame.epoch});
      if (!delivered || hosts_[frame.to]->crashed()) {
        const std::scoped_lock slock(stats_mu_);
        // type is inside the encoding; account the drop generically as 0.
        stats_.record_drop(0);
      }
    }
    lock.lock();
  }
}

void ThreadNetwork::client_issue(OpState& st) {
  if (!started_) {
    st.owner->complete_failed(st, kNotStartedStatus);
    return;
  }
  if (!hosts_[st.node]->mailbox().push(OpEnvelope{&st})) {
    st.owner->complete_failed(st, kShutdownStatus);
  }
}

void ThreadNetwork::crash(ProcessId pid) {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  hosts_[pid]->mailbox().push(CrashEnvelope{});
}

void ThreadNetwork::record_fenced_drop() {
  const std::scoped_lock lock(stats_mu_);
  stats_.record_drop(0);
}

void ThreadNetwork::recover(ProcessId pid) {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  TBR_ENSURE(crashed(pid), "recover of a process that is not crashed");
  TBR_ENSURE(factories_.rejoin != nullptr,
             "recover needs Options::recover_factory");
  hosts_[pid]->mailbox().push(RecoverEnvelope{factories_.rejoin});
}

bool ThreadNetwork::crashed(ProcessId pid) const {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  return hosts_[pid]->crashed();
}

MessageStats ThreadNetwork::stats_snapshot() const {
  const std::scoped_lock lock(stats_mu_);
  return stats_;
}

}  // namespace tbr
