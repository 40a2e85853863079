// ShardRouter: deterministic key placement for the sharded KV engine.
//
// One hash, three coordinates. A key's 64-bit FNV-1a hash is split so the
// coordinates stay independent as the topology changes:
//
//   shard = high 32 bits  mod  #shards     (which register group)
//   slot  = low  32 bits  mod  slots/shard (which register inside the group)
//   home  = slot          mod  n           (which replica owns the write)
//
// Using disjoint hash halves for shard and slot means resharding (changing
// the shard count) re-balances keys across groups without also reshuffling
// their slot assignment pattern, and vice versa. A single-shard store
// (shards = 1) is the degenerate case of this scheme, not a different one.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/ids.hpp"

namespace tbr {

class ShardRouter {
 public:
  ShardRouter(std::uint32_t shards, std::uint32_t slots_per_shard,
              std::uint32_t nodes_per_shard);

  struct Placement {
    std::uint32_t shard = 0;  ///< register group
    std::uint32_t slot = 0;   ///< register instance within the group
    ProcessId home = 0;       ///< replica that owns the slot's writes
  };
  Placement place(std::string_view key) const;

  std::uint32_t shard_of(std::string_view key) const;
  std::uint32_t slot_of(std::string_view key) const;
  ProcessId home_node(std::string_view key) const;

  std::uint32_t shard_count() const noexcept { return shards_; }
  std::uint32_t slots_per_shard() const noexcept { return slots_; }
  std::uint32_t nodes_per_shard() const noexcept { return nodes_; }

 private:
  std::uint32_t shards_ = 1;
  std::uint32_t slots_ = 1;
  std::uint32_t nodes_ = 1;
};

}  // namespace tbr
