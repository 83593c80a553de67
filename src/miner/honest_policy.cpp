#include "miner/honest_policy.h"

#include "chain/uncle_index.h"
#include "support/check.h"

namespace ethsm::miner {

HonestPolicy::HonestPolicy(double gamma, const rewards::RewardConfig& rewards)
    : gamma_(gamma),
      horizon_(rewards.reference_horizon()),
      max_refs_(rewards.max_uncles_per_block) {
  ETHSM_EXPECTS(gamma >= 0.0 && gamma <= 1.0, "gamma must lie in [0, 1]");
}

chain::BlockId HonestPolicy::choose_parent(const PublicView& view,
                                           support::Xoshiro256& rng) const {
  // Short-circuit: only a tie consumes a tie-break draw from `rng`.
  return parent_for_preference(view, view.tie && rng.bernoulli(gamma_));
}

chain::BlockId HonestPolicy::parent_for_preference(const PublicView& view,
                                                   bool prefers_pool_branch) {
  if (!view.tie) return view.consensus_tip;
  return prefers_pool_branch ? view.pool_branch_tip : view.honest_branch_tip;
}

chain::BlockId HonestPolicy::mine_block(chain::BlockTree& tree,
                                        chain::BlockId parent, double now,
                                        std::uint32_t miner_id) {
  uncle_scratch_.refs.clear();
  if (horizon_ > 0) {
    chain::collect_uncle_references(tree, parent, horizon_, max_refs_,
                                    uncle_scratch_);
  }
  const chain::BlockId id = tree.append(parent, chain::MinerClass::honest,
                                        miner_id, now, uncle_scratch_.refs);
  tree.publish(id, now);  // honest miners broadcast immediately
  return id;
}

}  // namespace ethsm::miner
