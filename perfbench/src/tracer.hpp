// Tracing decorators for the traced run: the layers are measured from the
// outside, through the engines' public extension points only.
//
//   * TracedProcess wraps a RegisterProcessBase built by an engine's
//     process_factory / recover_factory / register_factory. It times
//     on_message (self time: minus nested sends and completion callbacks),
//     and wraps each start_* completion so the op's protocol round
//     [start_* entry, done] is known to the client callback that runs
//     inside it.
//   * Its NetworkContext decorator times send (minus the encode nested in
//     it) and, on FIFO transports, numbers each channel's frames so a send
//     can be matched to the on_message it caused.
//   * Its Codec decorator times encode_into / decode_into.
//
// Recording is per lane: one lane per single-threaded owner (a socket
// process's loop thread, a kv shard's worker, the simulator thread) plus a
// main lane for the generator thread, so the hot path takes no lock.
// Lanes keep running sums for the per-layer metrics and the first
// kMaxSpans spans for the trace file written at exit.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/register_process.hpp"

namespace tbr {
class TwoBitProcess;
}

namespace perfbench {

/// The two-bit process behind `p`, looking through a TracedProcess; null
/// for other register implementations.
const tbr::TwoBitProcess* as_twobit(const tbr::RegisterProcessBase& p);

enum class SpanName : std::uint8_t {
  kOp,              ///< submit call entry -> completion callback entry
  kClientSubmit,    ///< time inside write/read/put/get
  kRound,           ///< protocol.round (register) / kvstore.round (slot)
  kClientComplete,  ///< protocol done -> user callback
  kCodecEncode,
  kCodecDecode,
  kProtocolHandler,
  kTransportSend,
};

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t op = 0;         ///< op id (op spans); 0 on frame spans
  std::uint32_t chan_idx = 0;   ///< frame spans: per-channel FIFO index
  std::uint16_t from = 0;       ///< frame spans: sender
  std::uint16_t to = 0;         ///< frame spans: receiver
  SpanName name = SpanName::kOp;
};

/// Running sums of one lane (single writer).
struct LaneTotals {
  std::int64_t encode_ns = 0;
  std::uint64_t encodes = 0;
  std::uint64_t encoded_bytes = 0;
  std::int64_t decode_ns = 0;
  std::uint64_t decodes = 0;
  std::int64_t send_ns = 0;       ///< whole NetworkContext::send calls
  std::int64_t send_self_ns = 0;  ///< minus the encode nested in them
  std::uint64_t sends = 0;
  std::array<std::uint64_t, 16> sent_by_type{};
  std::int64_t handler_self_ns = 0;
  std::uint64_t handlers = 0;
  std::int64_t outer_handler_ns = 0;  ///< on_message calls not nested in one
  std::uint64_t write_rounds = 0;     ///< start_write calls
  std::uint64_t read_rounds = 0;      ///< start_read calls
  std::int64_t submit_ns = 0;
  std::uint64_t submits = 0;
  // Per-op split measured at completion (ops whose round was observed):
  // submit entry -> round start -> done -> callback entry.
  std::int64_t pre_round_ns = 0;
  std::int64_t round_ns = 0;
  std::int64_t complete_ns = 0;
  std::int64_t op_ns = 0;
  std::uint64_t split_ops = 0;

  void merge(const LaneTotals& o);
};

class Lane {
 public:
  static constexpr std::size_t kMaxSpans = 1u << 13;
  static constexpr std::size_t kMaxFifo = 1u << 17;

  explicit Lane(std::uint32_t fifo_peers);

  void record(const Span& s) {
    if (spans.size() < kMaxSpans) spans.push_back(s);
  }

  LaneTotals totals;
  std::vector<Span> spans;
  /// FIFO transports: per peer, send-return / receive-entry times by
  /// channel index (first kMaxFifo frames per channel).
  std::vector<std::vector<std::int64_t>> send_ret;
  std::vector<std::vector<std::int64_t>> recv_at;
  std::vector<std::uint32_t> send_idx;
  std::vector<std::uint32_t> recv_idx;
};

class TracedProcess;
struct Report;  // common.hpp

/// Where an engine starts an op's protocol round, relative to the submit.
enum class Admission {
  kLoopThread,  ///< handed to a loop thread: transport.admit_ns (socket)
  kShardQueue,  ///< queued for a batching window: kvstore.queue_ns
  kInline,      ///< started inside the submit call (simulator)
};

/// Adds the per-op split of a traced window to `report`: client.submit_ns,
/// the wait until the round starts (per `admission`), the round
/// (kvstore.round_ns for kShardQueue, else protocol.round_ns),
/// client.complete_ns, and trace.split_coverage = their sum over the mean
/// op latency of the same ops.
void add_split_metrics(Report& report, const LaneTotals& totals,
                       Admission admission);

/// Adds the frame-level metrics of a traced window: codec.encode_ns,
/// codec.decode_ns, codec.bytes_per_frame, protocol.handler_ns and the
/// two-bit frames per protocol write / read round.
void add_frame_metrics(Report& report, const LaneTotals& totals);

class Tracer {
 public:
  using Factory = std::function<std::unique_ptr<tbr::RegisterProcessBase>(
      const tbr::GroupConfig&, tbr::ProcessId)>;
  using LaneOf = std::function<std::uint32_t(tbr::ProcessId)>;

  /// `lanes` owner lanes plus a main lane; `fifo_peers` > 0 turns on
  /// channel numbering for hop matching (FIFO transports only).
  Tracer(std::uint32_t lanes, std::uint32_t fifo_peers);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Decorate a factory: every process it builds is wrapped in a
  /// TracedProcess recording on lane `lane_of(pid)` (evaluated per build).
  Factory wrap(Factory inner, LaneOf lane_of);

  /// The calling thread records its client-side spans on the main lane.
  void bind_main_thread();

  /// Spans starting before `t` (wall ns) are not recorded: the warm-up of
  /// a traced window stays out of the per-layer figures.
  static void record_from(std::int64_t t);

  /// Client hooks, called on the submitting / completing thread.
  static void submitted(std::uint64_t op, std::int64_t t0, std::int64_t t_end);
  static void completed(std::uint64_t op, std::int64_t t0, std::int64_t t_cb);

  LaneTotals merged() const;
  /// Mean transport hop (send return -> decode entry) over matched frames.
  double hop_mean_ns() const;
  /// Max over live traced processes (call with the engine stopped).
  std::uint64_t max_local_memory() const;
  std::uint64_t max_history_bytes() const;

  /// Write the kept spans as JSON lines; `kv` picks the kvstore span names.
  bool write_trace(const std::string& path, bool kv) const;

 private:
  friend class TracedProcess;
  void attach(TracedProcess* p);
  void detach(TracedProcess* p);

  std::uint32_t fifo_peers_;
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< owner lanes, then main
  mutable std::mutex live_mu_;
  std::vector<TracedProcess*> live_;
};

}  // namespace perfbench
