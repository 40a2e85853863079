#include "workload/algorithms.hpp"

#include "abd/phased_process.hpp"
#include "common/contracts.hpp"
#include "core/twobit_process.hpp"
#include "fastread/ohram_process.hpp"
#include "fastread/time_efficient_process.hpp"

namespace tbr {

const std::vector<Algorithm>& all_algorithms() {
  static const std::vector<Algorithm> all = {
      Algorithm::kAbdUnbounded,
      Algorithm::kAbdBounded,
      Algorithm::kAttiya,
      Algorithm::kTwoBit,
  };
  return all;
}

const std::vector<Algorithm>& fastread_algorithms() {
  static const std::vector<Algorithm> fast = {
      Algorithm::kOhRam,
      Algorithm::kTimeEfficient,
  };
  return fast;
}

std::string algorithm_name(Algorithm algo) {
  switch (algo) {
    case Algorithm::kTwoBit:
      return "twobit";
    case Algorithm::kAbdUnbounded:
      return "abd-unbounded";
    case Algorithm::kAbdBounded:
      return "abd-bounded";
    case Algorithm::kAttiya:
      return "attiya";
    case Algorithm::kOhRam:
      return "ohram";
    case Algorithm::kTimeEfficient:
      return "timeeff";
  }
  TBR_ENSURE(false, "unknown algorithm");
  return {};
}

std::unique_ptr<RegisterProcessBase> make_register_process(Algorithm algo,
                                                           GroupConfig cfg,
                                                           ProcessId self) {
  switch (algo) {
    case Algorithm::kTwoBit:
      return make_twobit_process(std::move(cfg), self);
    case Algorithm::kAbdUnbounded:
      return make_abd_unbounded_process(std::move(cfg), self);
    case Algorithm::kAbdBounded:
      return make_abd_bounded_process(std::move(cfg), self);
    case Algorithm::kAttiya:
      return make_attiya_process(std::move(cfg), self);
    case Algorithm::kOhRam:
      return make_ohram_process(std::move(cfg), self);
    case Algorithm::kTimeEfficient:
      return make_time_efficient_process(std::move(cfg), self);
  }
  TBR_ENSURE(false, "unknown algorithm");
  return {};
}

GroupFactories resolve_factories(Algorithm algo,
                                 RegisterFactory process_factory,
                                 RegisterFactory recover_factory) {
  GroupFactories out;
  out.rejoin = std::move(recover_factory);
  if (!out.rejoin && algo == Algorithm::kTwoBit && !process_factory) {
    out.rejoin = [](const GroupConfig& cfg, ProcessId pid) {
      TwoBitOptions opt;
      opt.recover_via_catchup = true;
      return std::make_unique<TwoBitProcess>(cfg, pid, opt);
    };
  }
  out.start = std::move(process_factory);
  if (!out.start) {
    out.start = [algo](const GroupConfig& cfg, ProcessId pid) {
      return make_register_process(algo, cfg, pid);
    };
  }
  return out;
}

}  // namespace tbr
