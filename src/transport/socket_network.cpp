#include "transport/socket_network.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/contracts.hpp"
#include "transport/event_loop.hpp"
#include "transport/frame_buffer.hpp"
#include "transport/tcp_socket.hpp"

namespace tbr {

using Clock = std::chrono::steady_clock;

namespace {
constexpr Status kCrashedStatus{StatusCode::kCrashed, "process has crashed"};
constexpr Status kShutdownStatus{StatusCode::kShutdown,
                                 "network is shut down"};
constexpr Status kNotStartedStatus{StatusCode::kShutdown,
                                   "network is not started"};
/// epoll tag reserved for a loop's own wakeup pipe.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
/// How long a loop with nothing to do polls before it blocks. A reply to
/// a frame the loop just wrote lands about one loopback hop later (13–17
/// µs per hop in an n = 3 socket-rw trace on a 4-vCPU host); polling for
/// a few hops catches it without paying the sleep and wake-up, and an
/// idle loop still blocks within 50 µs of its last event.
constexpr Tick kSpinNs = 50'000;
}  // namespace

// ---- Loop: one epoll event loop multiplexing a shard of the processes ----------
//
// Each loop owns an Epoller, a wakeup pipe, a typed command queue, and a
// timer heap; the processes assigned to it (pid % loops) run all their
// handlers on its thread. Connections register a Watch once — interest
// changes are O(1) epoll_ctl calls against a cached armed-events mask,
// nothing is rebuilt per iteration (the poll(2) engine this replaces
// rebuilt and rescanned its whole pollfd array every wakeup).
//
// The command queue and wake pipe are for other threads only. Work that
// originates on the loop's own thread — a completion callback issuing the
// next op for a process on this loop — is admitted in place, saving the
// pipe write(2), the queue lock, an epoll round and the pipe read(2).
//
// One iteration: due timers, then I/O and commands, then the admission
// pump, then one flush of every channel a send dirtied — so the frames an
// iteration queues for one peer share one write(2), whichever handler,
// timer or pump pass queued them — and then the wait. A loop that has a
// spare hardware thread (loops < hardware_concurrency) polls for up to
// kSpinNs before it blocks; on a host without one it blocks at once.

class SocketNetwork::Loop {
 public:
  /// One marshaled request for a node on this loop's thread. The hot case
  /// (kOp) is a plain pooled-OpState pointer — no promises, no shared
  /// state, nothing to allocate per op. The cold cases are fault plumbing:
  /// a crash marker, a fresh connection to adopt (rejoin re-meshing), a
  /// rebirth carrying the factory for the new incarnation, and the
  /// slow-reader fault hook.
  struct Command {
    enum class Kind { kOp, kCrash, kReattach, kRecover, kReadPause };
    Kind kind = Kind::kOp;
    Node* node = nullptr;
    OpState* op = nullptr;        // kOp
    ProcessId peer = kNoProcess;  // kReattach: whose channel this is
    OwnedFd fd;                   // kReattach: the new connection
    bool pause = false;           // kReadPause
    RegisterFactory make;         // kRecover
  };

  /// `spin`: poll up to kSpinNs before blocking (see the note above).
  Loop(SocketNetwork& net, bool spin) : net_(net), spin_(spin) {
    auto [rd, wr] = tcp::make_wakeup_pipe();
    wake_rd_ = std::move(rd);
    wake_wr_ = std::move(wr);
    epoll_.add(wake_rd_.get(), EPOLLIN, kWakeTag);
  }

  void adopt_node(Node* node) { nodes_.push_back(node); }

  /// Reserve a watch slot for (node, peer). Registration with the kernel
  /// happens at the first set_interest with a live fd.
  std::uint32_t register_watch(Node* node, ProcessId peer) {
    watches_.push_back(Watch{node, peer});
    return static_cast<std::uint32_t>(watches_.size() - 1);
  }

  /// Reconcile the kernel's interest set for a watch with `events`,
  /// issuing at most one epoll_ctl (none when nothing changed).
  void set_interest(std::uint32_t id, int fd, std::uint32_t events) {
    Watch& w = watches_[id];
    if (!w.registered) {
      epoll_.add(fd, events, id);
      w.registered = true;
      w.fd = fd;
      w.armed = events;
      return;
    }
    TBR_ENSURE(w.fd == fd, "watch rebound without clear_interest");
    if (w.armed != events) {
      epoll_.mod(fd, events, id);
      w.armed = events;
    }
  }

  /// The watch's fd is about to close (closing an epoll-registered fd
  /// deregisters it in the kernel); forget our cached registration.
  void clear_interest(std::uint32_t id) {
    Watch& w = watches_[id];
    w.registered = false;
    w.armed = 0;
    w.fd = -1;
  }

  /// A send queued bytes on the watch's channel: flush it before the next
  /// wait (loop thread only).
  void mark_dirty(std::uint32_t id) {
    Watch& w = watches_[id];
    if (w.dirty) return;
    w.dirty = true;
    dirty_.push_back(id);
  }
  /// The channel has a flush pending, which settles its interest.
  bool dirty(std::uint32_t id) const noexcept { return watches_[id].dirty; }

  /// True on this loop's own thread while it runs (not during the
  /// shutdown drain, so late submissions take the closed queue).
  bool on_this_thread() const noexcept { return current_ == this; }
  /// An op joined some node's admission FIFO, or a drain unparked a node
  /// whose FIFO may hold ops (loop thread only).
  void note_admission() noexcept { admitted_ = true; }

  bool submit(Command&& cmd) {
    {
      const std::scoped_lock lock(cmd_mu_);
      if (closed_) return false;
      commands_.push_back(std::move(cmd));
    }
    wake();
    return true;
  }

  void wake() {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup.
    (void)!::write(wake_wr_.get(), &byte, 1);
  }

  void schedule(Node* node, std::uint64_t epoch, Tick at,
                std::function<void()> fn);

  void run(std::stop_token st);

 private:
  struct Watch {
    Node* node = nullptr;
    ProcessId peer = kNoProcess;
    int fd = -1;
    std::uint32_t armed = 0;
    bool registered = false;
    bool dirty = false;  ///< listed in dirty_, flushed before the next wait
  };
  struct Timer {
    Tick at = 0;
    std::uint64_t seq = 0;
    Node* node = nullptr;
    std::uint64_t epoch = 0;
    std::function<void()> fn;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  int wait_timeout_ms() const {
    if (timers_.empty()) return -1;
    const Tick ns = timers_.front().at - net_.now();
    if (ns <= 0) return 0;
    return static_cast<int>(
        std::min<Tick>((ns + 999'999) / 1'000'000, 60'000));
  }

  void flush_dirty();
  std::span<const epoll_event> wait_for_events();
  void fire_due_timers();
  void run_commands();
  void fail_queued_commands();

  SocketNetwork& net_;
  const bool spin_;
  Epoller epoll_;
  OwnedFd wake_rd_, wake_wr_;
  std::vector<Node*> nodes_;  ///< the processes sharded onto this loop
  std::vector<Watch> watches_;
  std::vector<std::uint32_t> dirty_;  ///< watches with unflushed sends

  std::mutex cmd_mu_;
  std::vector<Command> commands_;
  std::vector<Command> cmd_batch_;  ///< recycled drain buffer (loop thread)
  bool closed_ = false;

  std::vector<Timer> timers_;  // min-heap
  std::uint64_t timer_seq_ = 0;

  /// Set while ops may be startable that the last pump pass did not see
  /// (loop thread).
  bool admitted_ = false;
  /// The loop running on this thread, if any.
  static thread_local const Loop* current_;
};

thread_local const SocketNetwork::Loop* SocketNetwork::Loop::current_ =
    nullptr;

// ---- Node: one process, its connections, its handlers --------------------------

class SocketNetwork::Node final : public NetworkContext {
 public:
  Node(SocketNetwork& net, ProcessId pid,
       std::unique_ptr<RegisterProcessBase> proc)
      : net_(net), pid_(pid), proc_(std::move(proc)), peers_(net.cfg_.n),
        watch_ids_(net.cfg_.n, 0) {}

  // ---- NetworkContext (owning loop thread only) ---------------------------------
  void send(ProcessId to, const Message& msg) override {
    TBR_ENSURE(to < peers_.size() && to != pid_, "bad destination");
    if (crashed_) return;
    Connection& conn = peers_[to];
    {
      const std::scoped_lock lock(stats_mu_);
      stats_.record_send(msg.type, msg.wire);
      if (!conn.alive()) stats_.record_drop(msg.type);
    }
    if (!conn.alive()) return;
    // encode_into a reused scratch, then frame into the connection's
    // outbuf: no fresh string per send (the buffer-pool discipline of the
    // threaded runtime, ported to the socket path).
    proc_->codec().encode_into(msg, encode_scratch_);
    if (conn.queue_frame(encode_scratch_)) {
      park_events_.fetch_add(1, std::memory_order_relaxed);
      recompute_park();
    }
    const std::uint64_t queued = conn.queued_bytes();
    if (queued > peak_outbuf_.load(std::memory_order_relaxed)) {
      peak_outbuf_.store(queued, std::memory_order_relaxed);
    }
    // No write(2) here: the loop writes each dirty channel once before it
    // next waits, so this iteration's frames to `to` share one.
    loop_->mark_dirty(watch_ids_[to]);
  }
  ProcessId self() const override { return pid_; }
  std::uint32_t process_count() const override { return net_.cfg_.n; }
  Tick now() const override { return net_.now(); }
  void schedule(Tick delay, std::function<void()> fn) override {
    TBR_ENSURE(delay > 0, "timer delay must be positive");
    loop_->schedule(this, timer_epoch_, net_.now() + delay, std::move(fn));
  }

  // ---- mesh setup (main thread, before the loops start) -------------------------
  std::uint16_t listen() {
    auto [fd, port] = tcp::listen_loopback(static_cast<int>(net_.cfg_.n));
    listener_ = std::move(fd);
    return port;
  }
  int listener_fd() const { return listener_.get(); }

  void attach_loop(Loop* loop, const ConnLimits& limits) {
    loop_ = loop;
    limits_ = limits;
    loop->adopt_node(this);
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p == pid_) continue;
      peers_[p].configure(limits);
      watch_ids_[p] = loop->register_watch(this, p);
    }
  }
  Loop& loop() noexcept { return *loop_; }

  void adopt_connection(ProcessId peer, OwnedFd fd) {
    TBR_ENSURE(peer < peers_.size() && !peers_[peer].alive(),
               "duplicate connection");
    peers_[peer].adopt(std::move(fd));
    open_channels_.fetch_add(1, std::memory_order_relaxed);
  }
  void apply_kernel_buffers(int fd) const {
    if (limits_.kernel_buffer_bytes > 0) {
      tcp::set_sndbuf(fd, limits_.kernel_buffer_bytes);
      tcp::set_rcvbuf(fd, limits_.kernel_buffer_bytes);
    }
  }

  void finish_setup() {
    listener_.reset();
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p == pid_) continue;
      TBR_ENSURE(peers_[p].alive(), "mesh incomplete");
      tcp::set_nonblocking(peers_[p].fd());
      tcp::set_nodelay(peers_[p].fd());
      apply_kernel_buffers(peers_[p].fd());
      update_interest(p);
    }
  }

  void on_loop_start() { proc_->on_start(*this); }

  // ---- observers (any thread) ---------------------------------------------------
  bool crashed() const {
    return crashed_flag_.load(std::memory_order_acquire);
  }
  bool parked() const { return parked_flag_.load(std::memory_order_acquire); }
  std::uint64_t timer_epoch() const noexcept { return timer_epoch_; }

  void accumulate(BackpressureStats& out) const {
    out.park_events += park_events_.load(std::memory_order_relaxed);
    out.resume_events += resume_events_.load(std::memory_order_relaxed);
    out.deferred_ops += deferred_admissions_.load(std::memory_order_relaxed);
    out.peak_outbuf_bytes = std::max(
        out.peak_outbuf_bytes, peak_outbuf_.load(std::memory_order_relaxed));
    if (parked()) ++out.parked_now;
    out.oversized_frames += oversized_frames_.load(std::memory_order_relaxed);
    out.malformed_frames += malformed_frames_.load(std::memory_order_relaxed);
    out.open_channels += open_channels_.load(std::memory_order_relaxed);
    out.socket_writes += socket_writes_.load(std::memory_order_relaxed);
  }

  /// Fold this process's wire tallies into `out` (any thread).
  void merge_stats(MessageStats& out) const {
    const std::scoped_lock lock(stats_mu_);
    out.merge(stats_);
  }
  /// Record the local-memory gauge (main thread, before start() or after
  /// stop() joins the loops).
  void record_local_memory() {
    const std::scoped_lock lock(stats_mu_);
    stats_.record_local_memory(proc_->local_memory_bytes());
  }

  // ---- command handlers (owning loop thread) ------------------------------------

  /// A client operation reaching its owning loop thread, from the command
  /// queue or in place (issued on this thread). Admission is a FIFO: the
  /// op starts — or, on a crashed process, fails — from pump_ops(), never
  /// here, so admitting is safe from inside a protocol handler or a
  /// completion callback. The op starts once the process is idle and no
  /// outbound channel is parked — this is where backpressure becomes a
  /// deterministic stall of the RegisterClient submission chain instead
  /// of an unbounded buffer.
  void admit(OpState& st) {
    if (park_active_) {
      deferred_admissions_.fetch_add(1, std::memory_order_relaxed);
    }
    queued_ops_.push_back(&st);
    loop_->note_admission();
  }

  /// Start queued ops while the process is idle and unparked; on a crashed
  /// process, fail them with kCrashed in arrival order. Called at the top
  /// level of the loop iteration only — never from inside a protocol
  /// handler, so an op's first sends can't reenter the process
  /// mid-message. Only ops queued on entry are taken: one that a
  /// completion callback admits meanwhile waits for the next pass, so a
  /// callback that resubmits on every outcome cannot pin the loop here.
  void pump_ops() {
    const std::size_t end = queued_ops_.size();
    while (queued_head_ < end && (crashed_ || (!park_active_ &&
                                               pending_op_ == nullptr))) {
      OpState& st = *queued_ops_[queued_head_++];
      if (crashed_) {
        st.owner->complete_failed(st, kCrashedStatus);
      } else {
        start_op(st);
      }
    }
    if (queued_head_ == queued_ops_.size()) {
      queued_ops_.clear();  // capacity retained
      queued_head_ = 0;
    }
  }

  void handle_crash() {
    if (crashed_) return;
    crashed_ = true;
    crashed_flag_.store(true, std::memory_order_release);
    proc_->on_crash();
    // The model lets a faulty process's last operation evaporate (§2.2);
    // its client must still learn the outcome — fail it now, the algorithm
    // will never complete it. Queued-but-unstarted admissions fail in
    // arrival order behind it, at this iteration's pump_ops().
    if (pending_op_ != nullptr) {
      OpState& op = *pending_op_;
      pending_op_ = nullptr;
      op.owner->complete_failed(op, kCrashedStatus);
    }
    // A crash kills the endpoint: sockets close, peers see dead channels.
    // Frames sent before the crash still go out first, as far as the
    // kernel takes them, as if each send had written them at once.
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p == pid_) continue;
      if (peers_[p].alive()) (void)flush_channel(p);
      teardown_conn(p);
    }
    ++timer_epoch_;  // pending timers die with the incarnation
    recompute_park();
  }

  void handle_reattach(ProcessId p, OwnedFd fd) {
    TBR_ENSURE(p < peers_.size() && p != pid_, "bad reattach peer");
    tcp::set_nonblocking(fd.get());
    tcp::set_nodelay(fd.get());
    apply_kernel_buffers(fd.get());
    // Replace whatever channel state is left: closing the old fd and
    // clearing both buffers is the fence — every byte of the dead
    // connection (unsent, unread, or half-framed) dies here.
    teardown_conn(p);
    peers_[p].adopt(std::move(fd));
    open_channels_.fetch_add(1, std::memory_order_relaxed);
    update_interest(p);
    recompute_park();
  }

  void handle_recover(const RegisterFactory& make) {
    TBR_ENSURE(crashed_, "recover of a process that is not crashed");
    proc_ = make(net_.cfg_, pid_);
    TBR_ENSURE(proc_ != nullptr, "recover factory returned null");
    crashed_ = false;
    crashed_flag_.store(false, std::memory_order_release);
    proc_->on_start(*this);  // a rejoiner broadcasts CATCHUP here
    // Frames that landed in an inbuf between reattach and rebirth were
    // parked by the crashed dispatch gate; hand them over now.
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p != pid_ && peers_[p].alive()) dispatch_frames(p);
    }
  }

  void handle_read_pause(bool paused) {
    if (read_paused_ == paused) return;
    read_paused_ = paused;
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p != pid_ && peers_[p].alive()) update_interest(p);
    }
  }

  /// Readiness on the channel to `p` (owning loop thread).
  void on_io(ProcessId p, std::uint32_t events) {
    Connection& conn = peers_[p];
    if (!conn.alive()) return;  // torn down earlier in this batch
    const bool hangup = (events & (EPOLLHUP | EPOLLERR)) != 0;
    if (((events & EPOLLIN) != 0 && !read_paused_) || hangup) {
      const IoStatus rs = conn.read_budgeted();
      dispatch_frames(p);
      if (crashed_) return;
      if (!conn.alive()) {  // a handler tore this channel down
        recompute_park();
        return;
      }
      if (rs == IoStatus::kClosed) {
        teardown_conn(p);
        recompute_park();
        return;
      }
    }
    if ((events & EPOLLOUT) != 0 && conn.wants_write() &&
        !flush_channel(p)) {
      return;
    }
    update_interest(p);
  }

  /// The loop's pre-wait flush of a channel that sends dirtied.
  void flush_queued(ProcessId p) {
    if (peers_[p].alive() && flush_channel(p)) update_interest(p);
  }

  /// Loop exit: every accepted-but-unresolved operation completes with
  /// kShutdown — the in-protocol one first, then the admitted-but-queued
  /// ones in arrival order (kCrashed on a crashed process, as its
  /// pump_ops() would have). The loop no longer counts as this thread's,
  /// so callbacks resubmitting from here go to the command queue.
  void fail_all_pending() {
    if (pending_op_ != nullptr) {
      OpState& op = *pending_op_;
      pending_op_ = nullptr;
      op.owner->complete_failed(op, kShutdownStatus);
    }
    const Status& status = crashed_ ? kCrashedStatus : kShutdownStatus;
    for (std::size_t k = queued_head_; k < queued_ops_.size(); ++k) {
      queued_ops_[k]->owner->complete_failed(*queued_ops_[k], status);
    }
    queued_ops_.clear();
    queued_head_ = 0;
  }

  bool crashed_local() const noexcept { return crashed_; }

 private:
  void start_op(OpState& st) {
    TBR_ENSURE(pending_op_ == nullptr, "per-process op overlap");
    st.start = net_.now();
    pending_op_ = &st;
    if (st.kind == OpKind::kWrite) {
      proc_->start_write(*this, std::move(st.value), [this] {
        OpState& op = *pending_op_;
        pending_op_ = nullptr;
        op.result.latency = net_.now() - op.start;
        op.owner->complete(op);
      });
    } else {
      proc_->start_read(*this, [this](const Value& v, SeqNo index) {
        OpState& op = *pending_op_;
        pending_op_ = nullptr;
        op.result.value = v;  // copy into the pooled capacity
        op.result.version = index;
        op.result.latency = net_.now() - op.start;
        op.owner->complete(op);
      });
    }
  }

  void dispatch_frames(ProcessId p) {
    Connection& conn = peers_[p];
    // A handler can tear this very buffer down mid-loop (crash command, or
    // a send to p that discovers the socket closed), so re-check liveness
    // each iteration. The ring consumes each frame in O(frame): no
    // erase(0, pos) memmove of the whole remainder per drain.
    std::string_view frame;
    while (!crashed_ && conn.alive() && conn.next_frame(frame)) {
      // decode_into the loop's scratch Message: large payloads reuse its
      // value buffer instead of materializing a fresh string per frame.
      if (!decode(frame)) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        reject_channel(p);
        return;
      }
      proc_->on_message(*this, p, inbound_);
    }
    if (conn.alive() && conn.inbound_overlong()) {
      oversized_frames_.fetch_add(1, std::memory_order_relaxed);
      reject_channel(p);
    }
  }

  /// Peer bytes are untrusted: a frame the codec rejects (it throws
  /// ContractViolation) must cost its channel, not the loop thread.
  bool decode(std::string_view frame) {
    try {
      proc_->codec().decode_into(frame, inbound_);
      return true;
    } catch (const ContractViolation&) {
      return false;
    }
  }

  /// Close one channel whose peer sent an unusable frame; the process and
  /// its other channels carry on (to them the peer looks crashed).
  void reject_channel(ProcessId p) {
    teardown_conn(p);
    recompute_park();
  }

  void teardown_conn(ProcessId p) {
    Connection& conn = peers_[p];
    if (!conn.alive()) return;
    loop_->clear_interest(watch_ids_[p]);
    conn.close();
    open_channels_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Write up to the write budget of what the channel to `p` queued.
  /// False when the peer is gone and the channel was torn down.
  bool flush_channel(ProcessId p) {
    const auto fo = peers_[p].flush();
    // Single writer (this loop thread): no locked add on the hot path.
    socket_writes_.store(
        socket_writes_.load(std::memory_order_relaxed) + fo.writes,
        std::memory_order_relaxed);
    if (fo.status == IoStatus::kClosed) {
      teardown_conn(p);
      recompute_park();
      return false;
    }
    if (fo.resumed) {
      resume_events_.fetch_add(1, std::memory_order_relaxed);
      recompute_park();
      loop_->note_admission();  // queued ops may start now
    }
    return true;
  }

  void update_interest(ProcessId p) {
    Connection& conn = peers_[p];
    // A dirty channel's pending flush sets its interest once it is done.
    if (!conn.alive() || loop_->dirty(watch_ids_[p])) return;
    std::uint32_t ev = 0;
    if (!read_paused_) ev |= EPOLLIN;
    if (conn.wants_write()) ev |= EPOLLOUT;
    loop_->set_interest(watch_ids_[p], conn.fd(), ev);
  }

  /// Recompute the park flag (any live outbound channel above high water)
  /// after a transition-capable event. O(n), but only on transitions —
  /// steady-state sends that stay inside the watermarks never call this.
  void recompute_park() {
    bool any = false;
    for (ProcessId p = 0; p < peers_.size(); ++p) {
      if (p == pid_) continue;
      if (peers_[p].alive() && peers_[p].paused()) {
        any = true;
        break;
      }
    }
    if (any != park_active_) {
      park_active_ = any;
      parked_flag_.store(any, std::memory_order_release);
    }
  }

  SocketNetwork& net_;
  ProcessId pid_;
  std::unique_ptr<RegisterProcessBase> proc_;
  Loop* loop_ = nullptr;
  ConnLimits limits_;
  std::vector<Connection> peers_;
  std::vector<std::uint32_t> watch_ids_;  ///< per-peer epoll watch slots
  std::string encode_scratch_;  ///< reused wire buffer (loop thread only)
  Message inbound_;             ///< decode_into scratch (loop thread only)
  OwnedFd listener_;

  /// Admission FIFO (loop thread only): ops accepted but not yet started,
  /// drained by pump_ops() when idle and unparked. Recycled storage.
  std::vector<OpState*> queued_ops_;
  std::size_t queued_head_ = 0;
  /// The in-flight client operation (loop thread only): resolved by the
  /// protocol's completion callback, or failed by a crash marker or the
  /// shutdown path, whichever comes first.
  OpState* pending_op_ = nullptr;

  bool crashed_ = false;                   // loop thread's view
  std::atomic<bool> crashed_flag_{false};  // external observers
  bool read_paused_ = false;               // slow-reader fault hook
  bool park_active_ = false;               // loop thread's view
  std::atomic<bool> parked_flag_{false};   // external observers
  std::uint64_t timer_epoch_ = 0;

  std::atomic<std::uint64_t> park_events_{0};
  std::atomic<std::uint64_t> resume_events_{0};
  std::atomic<std::uint64_t> deferred_admissions_{0};
  std::atomic<std::uint64_t> peak_outbuf_{0};
  std::atomic<std::uint64_t> oversized_frames_{0};
  std::atomic<std::uint64_t> malformed_frames_{0};
  std::atomic<std::uint32_t> open_channels_{0};
  std::atomic<std::uint64_t> socket_writes_{0};

  /// This process's wire tallies: written by its loop thread on every
  /// send, read by stats_snapshot(). No other loop touches this lock.
  mutable std::mutex stats_mu_;
  MessageStats stats_;
};

// ---- Loop methods needing the complete Node type -------------------------------

void SocketNetwork::Loop::schedule(Node* node, std::uint64_t epoch, Tick at,
                                   std::function<void()> fn) {
  timers_.push_back(Timer{at, timer_seq_++, node, epoch, std::move(fn)});
  std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
}

void SocketNetwork::Loop::flush_dirty() {
  for (const std::uint32_t id : dirty_) {
    Watch& w = watches_[id];
    w.dirty = false;
    w.node->flush_queued(w.peer);
  }
  dirty_.clear();
}

std::span<const epoll_event> SocketNetwork::Loop::wait_for_events() {
  // Ops admitted or unparked since the last pump pass wait in a FIFO no
  // pipe byte announces: poll instead of blocking.
  if (admitted_) return epoll_.wait(0);
  if (spin_) {
    Tick until = net_.now() + kSpinNs;
    if (!timers_.empty()) until = std::min(until, timers_.front().at);
    while (net_.now() < until) {
      const auto events = epoll_.wait(0);
      if (!events.empty()) return events;
    }
  }
  return epoll_.wait(wait_timeout_ms());
}

void SocketNetwork::Loop::fire_due_timers() {
  while (!timers_.empty() && timers_.front().at <= net_.now()) {
    std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
    Timer timer = std::move(timers_.back());
    timers_.pop_back();
    // Epoch fencing: a crash bumps the node's epoch, so timers armed by a
    // dead incarnation are skipped without scanning the heap.
    if (timer.node->timer_epoch() == timer.epoch &&
        !timer.node->crashed_local() && timer.fn) {
      timer.fn();
    }
  }
}

void SocketNetwork::Loop::run_commands() {
  // Swap the queue against the recycled batch buffer: both vectors keep
  // their high-water capacity, so steady-state command marshaling never
  // allocates.
  cmd_batch_.clear();
  {
    const std::scoped_lock lock(cmd_mu_);
    cmd_batch_.swap(commands_);
  }
  for (Command& cmd : cmd_batch_) {
    switch (cmd.kind) {
      case Command::Kind::kOp:
        cmd.node->admit(*cmd.op);
        break;
      case Command::Kind::kCrash:
        cmd.node->handle_crash();
        break;
      case Command::Kind::kReattach:
        cmd.node->handle_reattach(cmd.peer, std::move(cmd.fd));
        break;
      case Command::Kind::kRecover:
        cmd.node->handle_recover(cmd.make);
        break;
      case Command::Kind::kReadPause:
        cmd.node->handle_read_pause(cmd.pause);
        break;
    }
  }
}

void SocketNetwork::Loop::fail_queued_commands() {
  std::vector<Command> rest;
  {
    const std::scoped_lock lock(cmd_mu_);
    closed_ = true;
    rest.swap(commands_);
  }
  for (const Command& cmd : rest) {
    if (cmd.op != nullptr) {
      cmd.op->owner->complete_failed(*cmd.op, kShutdownStatus);
    }
  }
}

void SocketNetwork::Loop::run(std::stop_token st) {
  current_ = this;
  for (Node* node : nodes_) node->on_loop_start();
  while (!st.stop_requested()) {
    flush_dirty();
    const auto events = wait_for_events();
    fire_due_timers();
    for (const epoll_event& ev : events) {
      const std::uint64_t tag = ev.data.u64;
      if (tag == kWakeTag) {
        tcp::drain_pipe(wake_rd_.get());
        run_commands();
        continue;
      }
      const Watch& w = watches_[tag];
      if (!w.registered) continue;  // torn down earlier in this batch
      w.node->on_io(w.peer, ev.events);
    }
    // Top-of-loop op admission: start queued client ops only here, never
    // from inside a protocol handler (sequential-process guarantee), and
    // only after backpressure state has settled for this batch.
    admitted_ = false;
    for (Node* node : nodes_) node->pump_ops();
  }
  // Loop exit: fail everything accepted, then everything still queued;
  // later submissions bounce at submit().
  current_ = nullptr;
  for (Node* node : nodes_) node->fail_all_pending();
  fail_queued_commands();
}

// ---- SocketNetwork ------------------------------------------------------------------

SocketNetwork::SocketNetwork(Options options)
    : cfg_(options.cfg),
      opt_(options),
      factories_(resolve_factories(options.algo,
                                   std::move(options.process_factory),
                                   std::move(options.recover_factory))),
      client_(*this, cfg_.n, cfg_.writer),
      epoch_(Clock::now()) {
  cfg_.validate();
  opt_.limits.validate();
  TBR_ENSURE(cfg_.n >= 2, "a socket mesh needs at least two processes");
  nodes_.reserve(cfg_.n);
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    nodes_.push_back(
        std::make_unique<Node>(*this, pid, factories_.start(cfg_, pid)));
  }
  const auto hw = std::max(1u, std::thread::hardware_concurrency());
  std::uint32_t count =
      opt_.loops == 0 ? std::min<std::uint32_t>(cfg_.n, hw) : opt_.loops;
  count = std::clamp<std::uint32_t>(count, 1, cfg_.n);
  loops_.reserve(count);
  // Spin only where the loops leave a hardware thread spare: a spinning
  // loop must not take the core its peer loop needs to answer it.
  for (std::uint32_t l = 0; l < count; ++l) {
    loops_.push_back(std::make_unique<Loop>(*this, count < hw));
  }
  // Shard processes onto loops: pid % loops. Every connection of a
  // process lives on its owner's loop — the mesh-topology analogue of
  // sharded accept (a channel is "accepted onto" exactly one loop).
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    nodes_[pid]->attach_loop(loops_[pid % count].get(), opt_.limits);
  }
}

SocketNetwork::~SocketNetwork() { stop(); }

// Issue = admit the OpState on the owning node's loop thread, which
// resolves it with a uniform Status: in place when the caller already is
// that thread, else as a Command through its queue and wake pipe.
// Completion is guaranteed: the loop's crash and shutdown paths fail every
// accepted op.
void SocketNetwork::client_issue(OpState& st) {
  if (!started_) {
    st.owner->complete_failed(st, kNotStartedStatus);
    return;
  }
  Node* node = nodes_[st.node].get();
  if (node->loop().on_this_thread()) {
    node->admit(st);
    return;
  }
  Loop::Command cmd;
  cmd.node = node;
  cmd.op = &st;
  if (!node->loop().submit(std::move(cmd))) {
    st.owner->complete_failed(st, kShutdownStatus);
  }
}

Tick SocketNetwork::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint32_t SocketNetwork::loop_count() const noexcept {
  return static_cast<std::uint32_t>(loops_.size());
}

void SocketNetwork::start() {
  TBR_ENSURE(!stopped_, "network cannot be restarted");
  if (started_) return;
  started_ = true;

  // Deterministic mesh handshake, one pair at a time: j dials i, announces
  // itself, i accepts. Loopback makes the dial/accept alternation safe.
  std::vector<std::uint16_t> ports(cfg_.n);
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    ports[pid] = nodes_[pid]->listen();
  }
  for (ProcessId i = 0; i < cfg_.n; ++i) {
    for (ProcessId j = i + 1; j < cfg_.n; ++j) {
      OwnedFd dialer = tcp::connect_loopback(ports[i]);
      const std::uint32_t hello = j;
      tcp::write_all_blocking(dialer.get(),
                              reinterpret_cast<const char*>(&hello),
                              sizeof(hello));
      OwnedFd accepted = tcp::accept_blocking(nodes_[i]->listener_fd());
      const std::string got =
          tcp::read_exact_blocking(accepted.get(), sizeof(std::uint32_t));
      std::uint32_t announced = 0;
      std::memcpy(&announced, got.data(), sizeof(announced));
      TBR_ENSURE(announced == j, "mesh handshake out of order");
      nodes_[i]->adopt_connection(j, std::move(accepted));
      nodes_[j]->adopt_connection(i, std::move(dialer));
    }
  }
  // Registers every fd with its owning loop's epoll — from this thread,
  // before the loop threads exist (thread creation orders the memory).
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) nodes_[pid]->finish_setup();

  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back(
        [l = loop.get()](std::stop_token st) { l->run(st); });
  }
}

void SocketNetwork::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& thread : threads_) thread.request_stop();
  for (auto& loop : loops_) loop->wake();
  threads_.clear();  // jthread joins on destruction
  // Loop threads are joined: process state is safe to read. Record the
  // final local-memory gauge next to each process's wire tallies.
  for (auto& node : nodes_) node->record_local_memory();
}

void SocketNetwork::crash(ProcessId pid) {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  Loop::Command cmd;
  cmd.kind = Loop::Command::Kind::kCrash;
  cmd.node = nodes_[pid].get();
  nodes_[pid]->loop().submit(std::move(cmd));
}

void SocketNetwork::recover(ProcessId pid) {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  TBR_ENSURE(started_ && !stopped_, "recover needs a running network");
  TBR_ENSURE(crashed(pid), "recover of a process that is not crashed");
  TBR_ENSURE(factories_.rejoin != nullptr,
             "recover needs Options::recover_factory");
  // Re-mesh: a brand-new TCP connection per live peer. The rejoiner adopts
  // its ends first (FIFO per loop command queue), so they are in place
  // before the recover command runs on_start (which broadcasts CATCHUP on
  // them).
  for (ProcessId q = 0; q < cfg_.n; ++q) {
    if (q == pid || nodes_[q]->crashed()) continue;
    auto [mine, theirs] = tcp::make_loopback_pair();
    Loop::Command to_self;
    to_self.kind = Loop::Command::Kind::kReattach;
    to_self.node = nodes_[pid].get();
    to_self.peer = q;
    to_self.fd = std::move(mine);
    nodes_[pid]->loop().submit(std::move(to_self));
    Loop::Command to_peer;
    to_peer.kind = Loop::Command::Kind::kReattach;
    to_peer.node = nodes_[q].get();
    to_peer.peer = pid;
    to_peer.fd = std::move(theirs);
    nodes_[q]->loop().submit(std::move(to_peer));
  }
  Loop::Command reborn;
  reborn.kind = Loop::Command::Kind::kRecover;
  reborn.node = nodes_[pid].get();
  reborn.make = factories_.rejoin;
  nodes_[pid]->loop().submit(std::move(reborn));
}

bool SocketNetwork::crashed(ProcessId pid) const {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  return nodes_[pid]->crashed();
}

bool SocketNetwork::parked(ProcessId pid) const {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  return nodes_[pid]->parked();
}

SocketNetwork::BackpressureStats SocketNetwork::backpressure_snapshot()
    const {
  BackpressureStats out;
  for (const auto& node : nodes_) node->accumulate(out);
  return out;
}

void SocketNetwork::set_read_paused(ProcessId pid, bool paused) {
  TBR_ENSURE(pid < cfg_.n, "pid out of range");
  Loop::Command cmd;
  cmd.kind = Loop::Command::Kind::kReadPause;
  cmd.node = nodes_[pid].get();
  cmd.pause = paused;
  nodes_[pid]->loop().submit(std::move(cmd));
}

MessageStats SocketNetwork::stats_snapshot() const {
  MessageStats out;
  for (const auto& node : nodes_) node->merge_stats(out);
  return out;
}

}  // namespace tbr
