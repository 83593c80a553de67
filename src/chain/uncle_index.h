// Uncle eligibility and reference collection (paper Sec. III-B).
//
// A block U is an *eligible uncle* for a prospective block N with parent P iff
//   1. U is not an ancestor of N (it lies on a competing branch),
//   2. U's parent IS an ancestor of N (U is a "direct child" of N's chain),
//   3. the height distance d = height(N) - height(U) satisfies 1 <= d <= horizon,
//   4. no ancestor of N (within the horizon window) already references U,
//   5. U is visible to N's miner at creation time (published; the selfish
//      pool's own private blocks are always ancestors of its new block, so
//      visibility only ever filters other miners' withheld blocks).
//
// Both honest miners and the selfish pool "include as many reference links as
// possible" (Sec. III-C); `max_refs` caps that (real Ethereum: 2 per block,
// paper analysis: unlimited).

#ifndef ETHSM_CHAIN_UNCLE_INDEX_H
#define ETHSM_CHAIN_UNCLE_INDEX_H

#include <span>
#include <vector>

#include "chain/block_tree.h"

namespace ethsm::chain {

/// An eligible uncle together with the distance at which the prospective block
/// would reference it.
struct UncleCandidate {
  BlockId id;
  int distance;
};

/// Reusable buffers for the per-block collection hot path. The mining
/// policies hold one scratch per policy instance so a 100k-block run performs
/// no per-block heap allocation once the buffers reach steady-state capacity
/// (confirmed by the allocs_per_block counter in bench_perf_micro).
struct UncleScratch {
  std::vector<UncleCandidate> candidates;
  std::vector<BlockId> ancestors;  ///< ancestors of windows deeper than 7
  std::vector<BlockId> refs;  ///< the ids of `candidates`
};

/// Collects the eligible uncles for a block about to be appended on
/// `parent`, truncated to `max_refs` (0 = unlimited): scratch.candidates gets
/// each uncle with its distance, scratch.refs only the ids (both cleared
/// first); scratch.ancestors is working space for deep windows. Candidates
/// come in (height, id) order -- oldest first, then in append order -- which
/// is also the greedy order `max_refs` truncates in. A window whose heights
/// each hold a single block (no fork) has no candidates and costs a few byte
/// reads (BlockTree::has_fork_at). This is what the mining policies call.
/// A non-empty `visible` mask (indexed by BlockId, nonzero = visible)
/// additionally restricts candidates to blocks this miner has actually
/// received -- the network simulator's per-node view, where a published
/// block may not have propagated to the referencing miner yet. An empty
/// mask keeps the historical published-only filtering.
void collect_uncle_references(const BlockTree& tree, BlockId parent,
                              int horizon, int max_refs, UncleScratch& scratch,
                              std::span<const std::uint8_t> visible = {});

}  // namespace ethsm::chain

#endif  // ETHSM_CHAIN_UNCLE_INDEX_H
