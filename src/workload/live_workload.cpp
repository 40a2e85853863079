#include "workload/live_workload.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "runtime/thread_network.hpp"
#include "transport/socket_network.hpp"

namespace tbr {

namespace {

template <typename Net>
LiveWorkloadResult run(Net& net, const LiveWorkloadOptions& options) {
  const GroupConfig& cfg = net.config();
  TBR_ENSURE(options.crashes <= cfg.t,
             "workload cannot crash more than t processes");
  net.start();

  HistoryLog log;
  std::vector<std::atomic<std::uint32_t>> completed(cfg.n);
  std::vector<ProcessId> victims;
  for (ProcessId pid = cfg.n; victims.size() < options.crashes;) {
    TBR_ENSURE(pid > 0, "ran out of crash victims");
    --pid;
    if (pid != cfg.writer) victims.push_back(pid);
  }

  {
    std::vector<std::jthread> clients;
    clients.reserve(cfg.n + 1);
    RegisterClient& client = net.client();
    for (ProcessId pid = 0; pid < cfg.n; ++pid) {
      clients.emplace_back([&, pid] {
        Rng rng(options.seed ^ (0x9E37ULL * (pid + 1)));
        for (std::uint32_t k = 0; k < options.ops_per_process; ++k) {
          if (pid == cfg.writer) {
            const SeqNo index = static_cast<SeqNo>(k) + 1;
            Value v = Value::from_int64(index);
            const auto id = log.begin_write(pid, net.now(), index, v);
            const OpResult r = client.write_sync(std::move(v));
            if (!r.status.ok()) break;  // we crashed mid-operation
            log.end_write(id, net.now());
          } else {
            const auto id = log.begin_read(pid, net.now());
            const OpResult r = client.read_sync(pid);
            if (!r.status.ok()) break;
            log.end_read(id, net.now(), r.value, r.version);
          }
          completed[pid].fetch_add(1, std::memory_order_relaxed);
          const auto think = rng.uniform(0, 200);
          std::this_thread::sleep_for(std::chrono::microseconds(think));
        }
      });
    }
    if (!victims.empty()) {
      clients.emplace_back([&] {
        // Let the workload get going, then take the victims down.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        for (const ProcessId pid : victims) net.crash(pid);
      });
    }
  }  // join all clients

  LiveWorkloadResult result;
  result.ops = log.ops();
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    if (net.crashed(pid)) continue;
    result.quota_of_correct += options.ops_per_process;
    result.completed_by_correct +=
        completed[pid].load(std::memory_order_relaxed);
  }
  return result;
}

}  // namespace

LiveWorkloadResult run_live_workload(ThreadNetwork& net,
                                     const LiveWorkloadOptions& options) {
  return run(net, options);
}

LiveWorkloadResult run_live_workload(SocketNetwork& net,
                                     const LiveWorkloadOptions& options) {
  return run(net, options);
}

}  // namespace tbr
