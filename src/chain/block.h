// Block model for the Ethereum blockchain substrate (paper Sec. II-A, Fig. 1).
//
// Blocks form a tree via `parent`; each block additionally carries the list of
// uncle blocks it references (Fig. 3). Publication time is tracked separately
// from creation time because the selfish pool withholds blocks (Sec. III-C):
// a block exists (and is mined upon by the pool) before the rest of the
// network can see it.

#ifndef ETHSM_CHAIN_BLOCK_H
#define ETHSM_CHAIN_BLOCK_H

#include <cstdint>
#include <limits>

namespace ethsm::chain {

/// Dense block identifier: index into BlockTree storage. Genesis is id 0.
using BlockId = std::uint32_t;

/// Sentinel for "no block" (genesis parent, absent tips).
inline constexpr BlockId kNoBlock = std::numeric_limits<BlockId>::max();

/// Publication timestamp for blocks that are still private.
inline constexpr double kNeverPublished = std::numeric_limits<double>::infinity();

/// Who mined a block: the honest population or the selfish pool (Sec. III-A).
enum class MinerClass : std::uint8_t { honest = 0, selfish = 1 };

[[nodiscard]] constexpr const char* to_string(MinerClass c) noexcept {
  return c == MinerClass::honest ? "honest" : "selfish";
}

/// Final classification of a block once the main chain is fixed
/// (paper Sec. III-B: regular / uncle / plain stale).
enum class BlockFate : std::uint8_t {
  regular,          ///< on the main chain; earns the static reward
  referenced_uncle, ///< stale, direct child of the main chain, referenced
  stale,            ///< stale and never referenced (no reward at all)
};

/// Block::referrer_gap when the referrers are not one block 1..254 above.
inline constexpr std::uint8_t kReferrersUnknown = 255;

struct Block {
  BlockId parent = kNoBlock;
  std::uint32_t height = 0;  ///< genesis = 0
  MinerClass miner = MinerClass::honest;
  /// Who references this block as an uncle: 0 = no block; 1..254 = exactly
  /// one block, this many heights above; kReferrersUnknown = any other case.
  /// Lets the uncle window test "already referenced" with one lookup.
  std::uint8_t referrer_gap = 0;
  std::uint32_t miner_id = 0;  ///< population-simulator identity; 0 otherwise
  double mined_at = 0.0;
  double published_at = kNeverPublished;
  /// Uncle blocks referenced *by* this block, fixed at creation time, stored
  /// as a slice of BlockTree's shared uncle-ref arena (offset + count) instead
  /// of a per-block heap vector; read them via BlockTree::uncle_refs(id).
  std::uint32_t uncle_begin = 0;
  std::uint32_t uncle_count = 0;

  [[nodiscard]] bool is_published() const noexcept {
    return published_at != kNeverPublished;
  }
};

}  // namespace ethsm::chain

#endif  // ETHSM_CHAIN_BLOCK_H
