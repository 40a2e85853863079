#include "history.hpp"

#include <algorithm>

#include "checker/history.hpp"
#include "checker/swmr_checker.hpp"

namespace perfbench {

namespace {

tbr::Value payload(const ClientOp& op) {
  if ((op.flags & ClientOp::kInitial) != 0) return tbr::Value();
  return tbr::Value::from_int64(op.value);
}

// Stamp order within one tick: an invocation (0) sorts before a response
// (2) taken at the same clock reading, and a clamped write start (3) sorts
// after the predecessor response it was clamped to.
constexpr std::uint64_t kStartOrder = 0;
constexpr std::uint64_t kEndOrder = 2;
constexpr std::uint64_t kClampedOrder = 3;

std::string check_register(std::vector<const ClientOp*>& ops,
                           std::uint32_t reg, bool kv_writes) {
  std::vector<const ClientOp*> survivors;
  std::vector<const ClientOp*> absorbed;
  for (const ClientOp* op : ops) {
    if (op->kind != ClientOp::kWrite) continue;
    ((op->flags & ClientOp::kAbsorbed) != 0 ? absorbed : survivors)
        .push_back(op);
  }
  std::sort(survivors.begin(), survivors.end(),
            [](const ClientOp* a, const ClientOp* b) {
              return a->index < b->index;
            });
  for (const ClientOp* a : absorbed) {
    if (a->index < 1 || a->index > static_cast<std::int64_t>(survivors.size())) {
      return "register " + std::to_string(reg) +
             ": absorbed put reports a version no write created";
    }
  }

  std::vector<tbr::OpRecord> records;
  records.reserve(ops.size());
  const ClientOp* prev = nullptr;
  for (const ClientOp* w : survivors) {
    tbr::OpRecord rec;
    rec.kind = tbr::OpRecord::Kind::kWrite;
    rec.proc = 0;
    rec.start = {w->t0, kStartOrder};
    // kv: puts from different callers overlap in real time, but the slot
    // register's writes are sequential at its home mux, and write v starts
    // only after write v-1's completion callbacks have run on the same
    // shard worker (MuxProcess runs a chain's next step after the previous
    // step's dones, and a new window after the previous one). So
    // max(t0_v, t1_{v-1}) never exceeds the protocol write's real start:
    // the clamped interval still contains it, and the writer is sequential.
    if (kv_writes && prev != nullptr) {
      const tbr::Stamp clamped{prev->t1, kClampedOrder};
      if (rec.start < clamped) rec.start = clamped;
    }
    rec.end = {w->t1, kEndOrder};
    rec.completed = true;
    rec.index = w->index;
    rec.value = payload(*w);
    records.push_back(std::move(rec));
    prev = w;
  }
  for (const ClientOp* r : ops) {
    if (r->kind != ClientOp::kRead) continue;
    tbr::OpRecord rec;
    rec.kind = tbr::OpRecord::Kind::kRead;
    rec.proc = 1u + r->proc;
    rec.start = {r->t0, kStartOrder};
    rec.end = {r->t1, kEndOrder};
    rec.completed = true;
    rec.index = r->index;
    rec.value = payload(*r);
    records.push_back(std::move(rec));
  }
  const tbr::CheckResult res = tbr::SwmrChecker::check(records, tbr::Value());
  if (res.ok) return "";
  return "register " + std::to_string(reg) + ": " + res.error;
}

}  // namespace

std::string check_history(const std::vector<const ChunkedLog<ClientOp>*>& logs,
                          std::uint32_t registers, bool kv_writes) {
  // Counting sort of record pointers by register: one pass to size the
  // buckets, one to fill them, no per-register allocation churn.
  std::vector<std::size_t> start(registers + 1, 0);
  for (const auto* log : logs) {
    for (std::size_t i = 0; i < log->size(); ++i) {
      const std::uint32_t reg = (*log)[i].reg;
      if (reg >= registers) return "record for an unknown register";
      ++start[reg + 1];
    }
  }
  for (std::uint32_t r = 0; r < registers; ++r) start[r + 1] += start[r];
  std::vector<const ClientOp*> sorted(start[registers]);
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (const auto* log : logs) {
    for (std::size_t i = 0; i < log->size(); ++i) {
      const ClientOp& op = (*log)[i];
      sorted[fill[op.reg]++] = &op;
    }
  }
  std::vector<const ClientOp*> ops;
  for (std::uint32_t r = 0; r < registers; ++r) {
    ops.assign(sorted.begin() + static_cast<std::ptrdiff_t>(start[r]),
               sorted.begin() + static_cast<std::ptrdiff_t>(start[r + 1]));
    if (ops.empty()) continue;
    std::string err = check_register(ops, r, kv_writes);
    if (!err.empty()) return err;
  }
  return "";
}

std::vector<Window> windows_of(
    const std::vector<const ChunkedLog<ClientOp>*>& logs, std::int64_t from,
    std::int64_t to, double window_s) {
  const auto width = static_cast<std::int64_t>(window_s * 1e9);
  const auto count = static_cast<std::size_t>(std::max<std::int64_t>(
      1, (to - from) / width));
  std::vector<Window> windows(count);
  std::vector<std::uint64_t> done(count, 0);
  for (const auto* log : logs) {
    for (std::size_t i = 0; i < log->size(); ++i) {
      const ClientOp& op = (*log)[i];
      if (op.t1 < from) continue;
      const auto w = static_cast<std::size_t>((op.t1 - from) / width);
      if (w >= count) continue;
      ++done[w];
      const double us = static_cast<double>(op.t1 - op.t0) / 1e3;
      (op.kind == ClientOp::kWrite ? windows[w].write_us : windows[w].read_us)
          .push_back(us);
    }
  }
  for (std::size_t w = 0; w < count; ++w) {
    windows[w].ops_per_s = static_cast<double>(done[w]) / window_s;
  }
  return windows;
}

}  // namespace perfbench
