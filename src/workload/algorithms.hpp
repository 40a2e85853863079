// Registry of the four register implementations Table 1 compares.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/register_process.hpp"

namespace tbr {

enum class Algorithm {
  kTwoBit,         ///< this paper: four message types, 2 control bits
  kAbdUnbounded,   ///< ABD'95, unbounded sequence numbers
  kAbdBounded,     ///< ABD'95 bounded variant (structural emulation)
  kAttiya,         ///< Attiya'00 bounded labels (structural emulation)
  kOhRam,          ///< Oh-RAM! one-and-a-half-round read (src/fastread)
  kTimeEfficient,  ///< Mostéfaoui–Raynal time-efficient register
};

/// The four Table 1 algorithms, in Table 1 column order. The fast-path
/// read engines are deliberately NOT in this list: Table 1 sweeps and
/// golden digests iterate it, and their membership is part of the paper's
/// comparison, not ours.
const std::vector<Algorithm>& all_algorithms();

/// The two fast-path read engines (src/fastread/), in docs order.
const std::vector<Algorithm>& fastread_algorithms();

std::string algorithm_name(Algorithm algo);

/// Instantiate one process of the chosen implementation.
std::unique_ptr<RegisterProcessBase> make_register_process(Algorithm algo,
                                                           GroupConfig cfg,
                                                           ProcessId self);

/// How a runtime builds its processes, resolved once from its Options.
struct GroupFactories {
  RegisterFactory start;   ///< every process's first incarnation
  RegisterFactory rejoin;  ///< recover(); empty = recovery is refused
};

/// The one process/rejoiner rule every runtime (sim, threaded, socket)
/// shares. `start` is `process_factory` when set (`algo` is then
/// informational), else the `algo` implementation. `rejoin` is
/// `recover_factory` when set; unset, a two-bit group built from `algo`
/// rejoins as a TwoBitProcess with recover_via_catchup (it bootstraps from
/// a peer checkpoint), and any other group cannot recover.
GroupFactories resolve_factories(Algorithm algo,
                                 RegisterFactory process_factory,
                                 RegisterFactory recover_factory);

}  // namespace tbr
