#include "kvstore/shard_router.hpp"

#include "common/contracts.hpp"

namespace tbr {

ShardRouter::ShardRouter(std::uint32_t shards, std::uint32_t slots_per_shard,
                         std::uint32_t nodes_per_shard)
    : shards_(shards), slots_(slots_per_shard), nodes_(nodes_per_shard) {
  TBR_ENSURE(shards_ >= 1, "router needs at least one shard");
  TBR_ENSURE(slots_ >= 1, "router needs at least one slot per shard");
  TBR_ENSURE(nodes_ >= 1, "router needs at least one node per shard");
}

namespace {

/// Stable 64-bit FNV-1a; the one hash every placement decision derives
/// from.
std::uint64_t fnv1a(std::string_view key) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// splitmix64 finalizer. Raw FNV-1a mixes its LOW bits well but leaves the
/// high half nearly constant for short, similar keys ("key-0".."key-255"
/// cover as few as 3 of 8 high-bits shard classes) — routing on it starves
/// shards. The avalanche spreads every input bit over the whole word, so
/// the two halves become independently usable.
std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

ShardRouter::Placement ShardRouter::place(std::string_view key) const {
  const std::uint64_t h = avalanche(fnv1a(key));
  Placement p;
  p.shard = static_cast<std::uint32_t>((h >> 32) % shards_);
  p.slot = static_cast<std::uint32_t>((h & 0xFFFFFFFFULL) % slots_);
  p.home = p.slot % nodes_;
  return p;
}

std::uint32_t ShardRouter::shard_of(std::string_view key) const {
  return place(key).shard;
}

std::uint32_t ShardRouter::slot_of(std::string_view key) const {
  return place(key).slot;
}

ProcessId ShardRouter::home_node(std::string_view key) const {
  return place(key).home;
}

}  // namespace tbr
