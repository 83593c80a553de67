#include "sim/population_sim.h"

#include <cmath>
#include <numeric>

#include "chain/block_tree.h"
#include "miner/honest_policy.h"
#include "miner/selfish_policy.h"
#include "support/check.h"
#include "support/rng.h"

namespace ethsm::sim {

namespace {

/// Lazily resampled per-miner tie preferences. Every time a new tie forms the
/// epoch advances; a miner's preference is resampled on first use afterwards.
class TiePreferences {
 public:
  TiePreferences(std::uint32_t num_miners, double gamma)
      : gamma_(gamma), epoch_of_(num_miners, 0), prefers_pool_(num_miners, 0) {}

  void new_tie() noexcept { ++epoch_; }

  [[nodiscard]] bool prefers_pool(std::uint32_t miner,
                                  support::Xoshiro256& rng) {
    if (epoch_of_[miner] != epoch_) {
      epoch_of_[miner] = epoch_;
      prefers_pool_[miner] = rng.bernoulli(gamma_) ? 1 : 0;
    }
    return prefers_pool_[miner] != 0;
  }

 private:
  double gamma_;
  std::uint64_t epoch_ = 1;
  std::vector<std::uint64_t> epoch_of_;
  std::vector<std::uint8_t> prefers_pool_;
};

}  // namespace

void PopulationConfig::validate() const {
  base.validate();
  ETHSM_EXPECTS(num_miners >= 2, "population needs at least two miners");
  ETHSM_EXPECTS(pool_size() < num_miners,
                "the pool may not control every miner");
}

std::uint32_t PopulationConfig::pool_size() const {
  return static_cast<std::uint32_t>(
      std::llround(base.alpha * static_cast<double>(num_miners)));
}

double PopulationConfig::effective_alpha() const {
  return static_cast<double>(pool_size()) / static_cast<double>(num_miners);
}

double PopulationResult::pool_member_share() const {
  const double total =
      std::accumulate(per_miner_reward.begin(), per_miner_reward.end(), 0.0);
  if (total == 0.0) return 0.0;
  const double pool = std::accumulate(per_miner_reward.begin(),
                                      per_miner_reward.begin() + pool_size, 0.0);
  return pool / total;
}

PopulationResult run_population_simulation(const PopulationConfig& config) {
  config.validate();
  const SimConfig& base = config.base;
  const std::uint32_t n = config.num_miners;
  const std::uint32_t pool_size = config.pool_size();

  chain::BlockTree& tree = chain::thread_local_tree(base.num_blocks + 1);
  // Pool blocks carry one miner id; rewards are split across members
  // afterwards.
  miner::SelfishPolicy pool(tree, base.rewards);
  miner::HonestPolicy honest(base.gamma, base.rewards);
  support::Xoshiro256 rng(base.seed);
  TiePreferences prefs(n, base.gamma);

  PopulationResult result;
  result.pool_size = pool_size;
  result.effective_alpha = config.effective_alpha();

  // A tie's identity is the pair of competing tips: a re-root replaces one
  // tie with another without ever passing through a no-tie view, so identity
  // (not mere existence) decides when preferences are resampled.
  std::pair<chain::BlockId, chain::BlockId> last_tie{chain::kNoBlock,
                                                     chain::kNoBlock};
  double now = 0.0;
  for (std::uint64_t step = 0; step < base.num_blocks; ++step) {
    now += rng.exponential(1.0);
    const auto miner_id = static_cast<std::uint32_t>(rng.uniform_below(n));
    const bool is_pool_member =
        base.pool_uses_selfish_strategy && miner_id < pool_size;

    if (is_pool_member) {
      pool.on_pool_block(now);
      ++result.sim.blocks_mined_pool;
    } else {
      const auto view = pool.public_view();
      chain::BlockId parent;
      if (view.tie) {
        const std::pair<chain::BlockId, chain::BlockId> tie_id{
            view.pool_branch_tip, view.honest_branch_tip};
        if (tie_id != last_tie) {
          prefs.new_tie();
          last_tie = tie_id;
        }
        parent = miner::HonestPolicy::parent_for_preference(
            view, prefs.prefers_pool(miner_id, rng));
      } else {
        parent = view.consensus_tip;
      }
      const chain::BlockId b = honest.mine_block(tree, parent, now, miner_id);
      pool.on_honest_block(b, now);
      ++result.sim.blocks_mined_honest;
    }
  }

  const chain::BlockId tip = pool.finalize(now);
  result.sim.duration = now;
  result.sim.ledger = chain::settle_rewards(tree, tip, base.rewards, n);

  // The pool's internal revenue sharing: members split the pool's total
  // reward proportionally to hash power (equal here), as in Sec. III-D. In
  // the all-honest control mode there is no pool to share anything.
  result.per_miner_reward = result.sim.ledger.per_miner_reward;
  if (base.pool_uses_selfish_strategy && pool_size > 0) {
    const double pool_total =
        result.sim.ledger.of(chain::MinerClass::selfish).total();
    for (std::uint32_t m = 0; m < pool_size; ++m) {
      result.per_miner_reward[m] = pool_total / pool_size;
    }
  }
  return result;
}

}  // namespace ethsm::sim
