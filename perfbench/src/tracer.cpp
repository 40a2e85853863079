#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "common.hpp"
#include "core/twobit_codec.hpp"
#include "core/twobit_process.hpp"

namespace perfbench {

namespace {

// Per-thread tracing state. Each engine runs a process's handlers on one
// thread at a time, so these need no synchronization.
struct RoundMark {
  std::int64_t start = 0;
  std::int64_t done = 0;
  bool active = false;
};
thread_local Lane* tl_lane = nullptr;     // lane of the innermost frame
thread_local std::int64_t tl_child_ns = 0;  // nested sends / dones, this frame
thread_local int tl_depth = 0;              // nesting of on_message frames
thread_local std::int64_t tl_encode_ns = 0;  // running encode total
thread_local std::int64_t tl_decode_entry = 0;  // decode that precedes a handler
thread_local RoundMark tl_round;            // round whose done is running

// Start of the recorded part of the traced window (Tracer::record_from).
std::atomic<std::int64_t> g_record_from{0};

bool before_window(std::int64_t t) {
  return t < g_record_from.load(std::memory_order_relaxed);
}

/// One protocol call (on_message / start_*): binds the owner's lane and
/// isolates the nested-time accumulator of the enclosing frame.
class Frame {
 public:
  explicit Frame(Lane& lane)
      : saved_lane_(tl_lane), saved_child_(tl_child_ns) {
    tl_lane = &lane;
    tl_child_ns = 0;
    start = now_ns();
  }
  /// Ends the frame; returns its duration.
  std::int64_t finish() {
    end = now_ns();
    self = end - start - tl_child_ns;
    tl_lane = saved_lane_;
    tl_child_ns = saved_child_;
    return end - start;
  }
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t self = 0;

 private:
  Lane* saved_lane_;
  std::int64_t saved_child_;
};

class TracedCodec final : public tbr::Codec {
 public:
  TracedCodec(const tbr::Codec& inner, Lane& lane, tbr::ProcessId self)
      : inner_(&inner), lane_(&lane), self_(self) {}

  void encode_into(const tbr::Message& msg, std::string& out) const override {
    const std::int64_t t0 = now_ns();
    inner_->encode_into(msg, out);
    const std::int64_t t1 = now_ns();
    tl_encode_ns += t1 - t0;
    if (before_window(t0)) return;
    LaneTotals& tot = lane_->totals;
    tot.encode_ns += t1 - t0;
    ++tot.encodes;
    tot.encoded_bytes += out.size();
    lane_->record({t0, t1, 0, 0, static_cast<std::uint16_t>(self_), 0,
                   SpanName::kCodecEncode});
  }
  void decode_into(std::string_view bytes, tbr::Message& out) const override {
    const std::int64_t t0 = now_ns();
    inner_->decode_into(bytes, out);
    const std::int64_t t1 = now_ns();
    tl_decode_entry = t0;
    if (before_window(t0)) return;
    lane_->totals.decode_ns += t1 - t0;
    ++lane_->totals.decodes;
    lane_->record({t0, t1, 0, 0, 0, static_cast<std::uint16_t>(self_),
                   SpanName::kCodecDecode});
  }
  tbr::WireAccounting account(const tbr::Message& msg) const override {
    return inner_->account(msg);
  }
  std::string type_name(std::uint8_t type) const override {
    return inner_->type_name(type);
  }

 private:
  const tbr::Codec* inner_;
  Lane* lane_;
  tbr::ProcessId self_;
};

/// Forwards to the engine's context of the current call; re-pointed on
/// every entry into the traced process (a process's context is stable
/// per engine, so a pointer the inner process keeps stays valid).
class TracedContext final : public tbr::NetworkContext {
 public:
  TracedContext(Lane& lane, tbr::ProcessId self, bool fifo)
      : lane_(&lane), self_(self), fifo_(fifo) {}

  void bind(tbr::NetworkContext& net) { inner_ = &net; }

  void send(tbr::ProcessId to, const tbr::Message& msg) override {
    const std::int64_t enc0 = tl_encode_ns;
    const std::int64_t t0 = now_ns();
    inner_->send(to, msg);
    const std::int64_t t1 = now_ns();
    const std::int64_t dur = t1 - t0;
    tl_child_ns += dur;
    std::uint32_t idx = 0;
    if (fifo_) {
      idx = lane_->send_idx[to]++;
      if (idx < Lane::kMaxFifo) lane_->send_ret[to].push_back(t1);
    }
    if (before_window(t0)) return;
    LaneTotals& tot = lane_->totals;
    tot.send_ns += dur;
    tot.send_self_ns += dur - (tl_encode_ns - enc0);
    ++tot.sends;
    ++tot.sent_by_type[msg.type & 15u];
    lane_->record({t0, t1, 0, idx, static_cast<std::uint16_t>(self_),
                   static_cast<std::uint16_t>(to), SpanName::kTransportSend});
  }
  tbr::ProcessId self() const override { return inner_->self(); }
  std::uint32_t process_count() const override {
    return inner_->process_count();
  }
  tbr::Tick now() const override { return inner_->now(); }
  void fence_peer(tbr::ProcessId to) override { inner_->fence_peer(to); }
  void schedule(tbr::Tick delay, std::function<void()> fn) override {
    inner_->schedule(delay, std::move(fn));
  }

 private:
  tbr::NetworkContext* inner_ = nullptr;
  Lane* lane_;
  tbr::ProcessId self_;
  bool fifo_;
};

}  // namespace

class TracedProcess final : public tbr::RegisterProcessBase {
 public:
  TracedProcess(Tracer& tracer, Lane& lane,
                std::unique_ptr<tbr::RegisterProcessBase> inner, bool fifo)
      : RegisterProcessBase(inner->config(), inner->self_id()),
        tracer_(tracer),
        lane_(lane),
        inner_(std::move(inner)),
        codec_(inner_->codec(), lane, self_),
        ctx_(lane, self_, fifo),
        fifo_(fifo) {
    tracer_.attach(this);
  }
  ~TracedProcess() override { tracer_.detach(this); }

  void on_start(tbr::NetworkContext& net) override {
    Frame f(lane_);
    ctx_.bind(net);
    inner_->on_start(ctx_);
    f.finish();
  }

  void on_message(tbr::NetworkContext& net, tbr::ProcessId from,
                  const tbr::Message& msg) override {
    std::uint32_t idx = 0;
    if (fifo_) {
      idx = lane_.recv_idx[from]++;
      const std::int64_t entry =
          tl_decode_entry != 0 ? tl_decode_entry : now_ns();
      if (idx < Lane::kMaxFifo) lane_.recv_at[from].push_back(entry);
    }
    tl_decode_entry = 0;
    const bool outer = tl_depth++ == 0;
    Frame f(lane_);
    ctx_.bind(net);
    inner_->on_message(ctx_, from, msg);
    const std::int64_t dur = f.finish();
    --tl_depth;
    if (before_window(f.start)) return;
    LaneTotals& tot = lane_.totals;
    tot.handler_self_ns += f.self;
    ++tot.handlers;
    if (outer) tot.outer_handler_ns += dur;
    lane_.record({f.start, f.end, 0, idx, static_cast<std::uint16_t>(from),
                  static_cast<std::uint16_t>(self_),
                  SpanName::kProtocolHandler});
  }

  void on_crash() override { inner_->on_crash(); }

  void start_write(tbr::NetworkContext& net, tbr::Value v,
                   WriteDone done) override {
    Frame f(lane_);
    round_start_ = f.start;
    ctx_.bind(net);
    inner_->start_write(ctx_, std::move(v),
                        [this, done = std::move(done)] {
                          finish_round([&] { done(); });
                        });
    f.finish();
    if (!before_window(f.start)) ++lane_.totals.write_rounds;
  }

  void start_read(tbr::NetworkContext& net, ReadDone done) override {
    Frame f(lane_);
    round_start_ = f.start;
    ctx_.bind(net);
    inner_->start_read(ctx_, [this, done = std::move(done)](
                                 const tbr::Value& value, tbr::SeqNo index) {
      finish_round([&] { done(value, index); });
    });
    f.finish();
    if (!before_window(f.start)) ++lane_.totals.read_rounds;
  }

  std::uint64_t local_memory_bytes() const override {
    return inner_->local_memory_bytes();
  }
  const tbr::Codec& codec() const override { return codec_; }

  const tbr::RegisterProcessBase& inner() const { return *inner_; }

 private:
  /// Runs the protocol's completion with this round published to the
  /// client callback nested in it; its time counts as the frame's child.
  template <typename Fn>
  void finish_round(Fn&& fn) {
    const std::int64_t t_done = now_ns();
    const RoundMark saved = tl_round;
    tl_round = {round_start_, t_done, true};
    fn();
    tl_round = saved;
    tl_child_ns += now_ns() - t_done;
  }

  Tracer& tracer_;
  Lane& lane_;
  std::unique_ptr<tbr::RegisterProcessBase> inner_;
  TracedCodec codec_;
  TracedContext ctx_;
  bool fifo_;
  std::int64_t round_start_ = 0;
};

const tbr::TwoBitProcess* as_twobit(const tbr::RegisterProcessBase& p) {
  if (const auto* traced = dynamic_cast<const TracedProcess*>(&p)) {
    return dynamic_cast<const tbr::TwoBitProcess*>(&traced->inner());
  }
  return dynamic_cast<const tbr::TwoBitProcess*>(&p);
}

void add_split_metrics(Report& report, const LaneTotals& t,
                       Admission admission) {
  const double pre_round = ratio(t.pre_round_ns, t.split_ops);
  const double round = ratio(t.round_ns, t.split_ops);
  const double complete = ratio(t.complete_ns, t.split_ops);
  const double op = ratio(t.op_ns, t.split_ops);
  // Inline admission: the round starts inside the submit call, so the
  // submit span ends there.
  const double submit = admission == Admission::kInline
                            ? pre_round
                            : ratio(t.submit_ns, t.submits);
  const bool kv = admission == Admission::kShardQueue;
  report.add("client.submit_ns", submit, "ns");
  if (admission != Admission::kInline) {
    report.add(kv ? "kvstore.queue_ns" : "transport.admit_ns",
               pre_round - submit, "ns");
  }
  report.add(kv ? "kvstore.round_ns" : "protocol.round_ns", round, "ns");
  report.add("client.complete_ns", complete, "ns");
  report.add("trace.op_mean_ns", op, "ns");
  report.add("trace.split_coverage", ratio(pre_round + round + complete, op),
             "ratio");
}

void add_frame_metrics(Report& report, const LaneTotals& t) {
  using tbr::TwoBitType;
  auto sent = [&t](TwoBitType type) {
    return t.sent_by_type[static_cast<std::size_t>(type)];
  };
  report.add("codec.encode_ns", ratio(t.encode_ns, t.encodes), "ns");
  report.add("codec.decode_ns", ratio(t.decode_ns, t.decodes), "ns");
  report.add("codec.bytes_per_frame", ratio(t.encoded_bytes, t.encodes),
             "bytes");
  report.add("protocol.handler_ns", ratio(t.handler_self_ns, t.handlers),
             "ns");
  report.add("protocol.write_frames_per_op",
             ratio(sent(TwoBitType::kWrite0) + sent(TwoBitType::kWrite1),
                   t.write_rounds),
             "count");
  report.add("protocol.read_frames_per_op",
             ratio(sent(TwoBitType::kRead) + sent(TwoBitType::kProceed),
                   t.read_rounds),
             "count");
}

// ---- LaneTotals / Lane ------------------------------------------------------

void LaneTotals::merge(const LaneTotals& o) {
  encode_ns += o.encode_ns;
  encodes += o.encodes;
  encoded_bytes += o.encoded_bytes;
  decode_ns += o.decode_ns;
  decodes += o.decodes;
  send_ns += o.send_ns;
  send_self_ns += o.send_self_ns;
  sends += o.sends;
  for (std::size_t t = 0; t < sent_by_type.size(); ++t) {
    sent_by_type[t] += o.sent_by_type[t];
  }
  handler_self_ns += o.handler_self_ns;
  handlers += o.handlers;
  outer_handler_ns += o.outer_handler_ns;
  write_rounds += o.write_rounds;
  read_rounds += o.read_rounds;
  submit_ns += o.submit_ns;
  submits += o.submits;
  pre_round_ns += o.pre_round_ns;
  round_ns += o.round_ns;
  complete_ns += o.complete_ns;
  op_ns += o.op_ns;
  split_ops += o.split_ops;
}

Lane::Lane(std::uint32_t fifo_peers)
    : send_ret(fifo_peers),
      recv_at(fifo_peers),
      send_idx(fifo_peers, 0),
      recv_idx(fifo_peers, 0) {
  spans.reserve(kMaxSpans);
  for (auto& v : send_ret) v.reserve(kMaxFifo);
  for (auto& v : recv_at) v.reserve(kMaxFifo);
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer(std::uint32_t lanes, std::uint32_t fifo_peers)
    : fifo_peers_(fifo_peers) {
  for (std::uint32_t i = 0; i <= lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>(fifo_peers));
  }
}

Tracer::~Tracer() {
  if (tl_lane == lanes_.back().get()) tl_lane = nullptr;
}

Tracer::Factory Tracer::wrap(Factory inner, LaneOf lane_of) {
  return [this, inner = std::move(inner), lane_of = std::move(lane_of)](
             const tbr::GroupConfig& cfg, tbr::ProcessId pid)
             -> std::unique_ptr<tbr::RegisterProcessBase> {
    Lane& lane = *lanes_.at(lane_of(pid));
    return std::make_unique<TracedProcess>(*this, lane, inner(cfg, pid),
                                           fifo_peers_ > 0);
  };
}

void Tracer::record_from(std::int64_t t) {
  g_record_from.store(t, std::memory_order_relaxed);
}

void Tracer::bind_main_thread() { tl_lane = lanes_.back().get(); }

void Tracer::submitted(std::uint64_t op, std::int64_t t0, std::int64_t t_end) {
  Lane* lane = tl_lane;
  if (lane == nullptr || before_window(t0)) return;
  lane->totals.submit_ns += t_end - t0;
  ++lane->totals.submits;
  lane->record({t0, t_end, op, 0, 0, 0, SpanName::kClientSubmit});
}

void Tracer::completed(std::uint64_t op, std::int64_t t0, std::int64_t t_cb) {
  Lane* lane = tl_lane;
  if (lane == nullptr || !tl_round.active || before_window(t0)) return;
  const RoundMark r = tl_round;
  LaneTotals& tot = lane->totals;
  tot.pre_round_ns += r.start - t0;
  tot.round_ns += r.done - r.start;
  tot.complete_ns += t_cb - r.done;
  tot.op_ns += t_cb - t0;
  ++tot.split_ops;
  lane->record({t0, t_cb, op, 0, 0, 0, SpanName::kOp});
  lane->record({r.start, r.done, op, 0, 0, 0, SpanName::kRound});
  lane->record({r.done, t_cb, op, 0, 0, 0, SpanName::kClientComplete});
}

LaneTotals Tracer::merged() const {
  LaneTotals all;
  for (const auto& lane : lanes_) all.merge(lane->totals);
  return all;
}

double Tracer::hop_mean_ns() const {
  double sum = 0;
  std::uint64_t count = 0;
  for (std::uint32_t p = 0; p < fifo_peers_; ++p) {
    for (std::uint32_t q = 0; q < fifo_peers_; ++q) {
      const auto& sent = lanes_[p]->send_ret[q];
      const auto& recv = lanes_[q]->recv_at[p];
      const std::size_t k = std::min(sent.size(), recv.size());
      for (std::size_t i = 0; i < k; ++i) {
        if (before_window(sent[i])) continue;
        sum += static_cast<double>(recv[i] - sent[i]);
        ++count;
      }
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

void Tracer::attach(TracedProcess* p) {
  const std::scoped_lock lock(live_mu_);
  live_.push_back(p);
}

void Tracer::detach(TracedProcess* p) {
  const std::scoped_lock lock(live_mu_);
  live_.erase(std::remove(live_.begin(), live_.end(), p), live_.end());
}

std::uint64_t Tracer::max_local_memory() const {
  const std::scoped_lock lock(live_mu_);
  std::uint64_t peak = 0;
  for (const TracedProcess* p : live_) {
    peak = std::max(peak, p->local_memory_bytes());
  }
  return peak;
}

std::uint64_t Tracer::max_history_bytes() const {
  const std::scoped_lock lock(live_mu_);
  std::uint64_t peak = 0;
  for (const TracedProcess* p : live_) {
    const tbr::TwoBitProcess* twobit = as_twobit(*p);
    if (twobit != nullptr) {
      peak = std::max(peak, twobit->memory_footprint().history_bytes);
    }
  }
  return peak;
}

bool Tracer::write_trace(const std::string& path, bool kv) const {
  std::ofstream out(path);
  if (!out) return false;
  auto name_of = [kv](SpanName n) -> const char* {
    switch (n) {
      case SpanName::kOp: return "op";
      case SpanName::kClientSubmit: return "client.submit";
      case SpanName::kRound: return kv ? "kvstore.round" : "protocol.round";
      case SpanName::kClientComplete: return "client.complete";
      case SpanName::kCodecEncode: return "codec.encode";
      case SpanName::kCodecDecode: return "codec.decode";
      case SpanName::kProtocolHandler: return "protocol.handler";
      case SpanName::kTransportSend: return "transport.send";
    }
    return "?";
  };
  // The admit/queue span is derived: it runs from the op's submit return
  // (kept on the submitting lane) to its round start (completing lane).
  std::vector<std::pair<std::uint64_t, std::int64_t>> submit_end;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans) {
      if (s.name == SpanName::kClientSubmit) submit_end.emplace_back(s.op, s.end);
    }
  }
  std::sort(submit_end.begin(), submit_end.end());
  const char* wait_name = kv ? "kvstore.queue" : "transport.admit";
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans) {
      out << "{\"name\":\"" << name_of(s.name) << "\",\"op\":" << s.op
          << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
          << ",\"from\":" << s.from << ",\"to\":" << s.to
          << ",\"chan_idx\":" << s.chan_idx << "}\n";
      if (s.name != SpanName::kRound) continue;
      const auto it = std::lower_bound(
          submit_end.begin(), submit_end.end(),
          std::pair<std::uint64_t, std::int64_t>{s.op, INT64_MIN});
      if (it == submit_end.end() || it->first != s.op) continue;
      out << "{\"name\":\"" << wait_name << "\",\"op\":" << s.op
          << ",\"start_ns\":" << std::min(it->second, s.start)
          << ",\"end_ns\":" << s.start << ",\"from\":0,\"to\":0"
          << ",\"chan_idx\":0}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
