// Structural invariant checking for finished (or in-progress) block trees.
//
// The simulator's correctness rests on the tree obeying Ethereum's structural
// rules at all times; the validator re-derives every rule from scratch (it
// shares no code with the policies) so tests get an independent referee:
//
//   V1  parent/height consistency, single genesis
//   V2  publication order: a block is published no earlier than mined, and no
//       earlier than its parent is mined
//   V3  every uncle reference is eligible: referenced block is not an ancestor
//       of the referencing block, its parent is, distance within horizon
//   V4  no uncle is referenced twice along any root-to-leaf chain
//   V5  per-block reference count respects max_uncles_per_block
//   V6  referenced uncles were published before the referencing block was
//       mined (no references to invisible blocks)
//   V7  the designated main chain is fully published

#ifndef ETHSM_CHAIN_CHAIN_VALIDATOR_H
#define ETHSM_CHAIN_CHAIN_VALIDATOR_H

#include <string>
#include <vector>

#include "chain/block_tree.h"
#include "rewards/reward_schedule.h"

namespace ethsm::chain {

struct ValidationReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// True iff `ancestor` lies on the parent path of `descendant` (a block is
/// an ancestor of itself).
[[nodiscard]] bool is_ancestor_of(const BlockTree& tree, BlockId ancestor,
                                  BlockId descendant);

/// Blocks from genesis to `tip`, inclusive, in height order.
[[nodiscard]] std::vector<BlockId> chain_from_genesis(const BlockTree& tree,
                                                      BlockId tip);

/// Validates the whole tree. `main_tip` = kNoBlock skips main-chain checks.
[[nodiscard]] ValidationReport validate_chain(
    const BlockTree& tree, const rewards::RewardConfig& config,
    BlockId main_tip = kNoBlock);

}  // namespace ethsm::chain

#endif  // ETHSM_CHAIN_CHAIN_VALIDATOR_H
