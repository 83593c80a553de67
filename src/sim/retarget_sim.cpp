#include "sim/retarget_sim.h"

#include "chain/block_tree.h"
#include "miner/honest_policy.h"
#include "miner/selfish_policy.h"
#include "support/rng.h"

namespace ethsm::sim {

void RetargetConfig::validate() const {
  base.validate();
  ETHSM_EXPECTS(epoch_blocks >= 10, "epochs below 10 blocks are all noise");
  ETHSM_EXPECTS(epochs >= 2, "need at least two epochs");
  ETHSM_EXPECTS(hash_rate > 0.0, "hash rate must be positive");
}

namespace {

/// Reward/uncle accounting for the finalized main-chain segment with heights
/// in (from_height, to_height], walking down from `tip_at_or_above`.
struct SegmentAccount {
  std::uint64_t regular = 0;
  std::uint64_t referenced_uncles = 0;
  double pool_reward = 0.0;
  double honest_reward = 0.0;
};

SegmentAccount account_segment(const chain::BlockTree& tree,
                               chain::BlockId tip, std::uint32_t from_height,
                               std::uint32_t to_height,
                               const rewards::RewardConfig& config) {
  SegmentAccount acc;
  chain::BlockId cur = tree.ancestor_at_height(tip, to_height);
  while (tree.height(cur) > from_height) {
    const chain::Block& b = tree.block(cur);
    ++acc.regular;
    double& own = b.miner == chain::MinerClass::selfish ? acc.pool_reward
                                                        : acc.honest_reward;
    own += 1.0;  // static reward
    for (chain::BlockId uid : tree.uncle_refs(cur)) {
      ++acc.referenced_uncles;
      const chain::Block& uncle = tree.block(uid);
      const int distance = static_cast<int>(b.height - uncle.height);
      (uncle.miner == chain::MinerClass::selfish ? acc.pool_reward
                                                 : acc.honest_reward) +=
          config.uncle_reward(distance);
      own += config.nephew_reward(distance);
    }
    cur = b.parent;
  }
  return acc;
}

}  // namespace

RetargetResult run_retarget_simulation(const RetargetConfig& config) {
  config.validate();
  const SimConfig& base = config.base;

  chain::BlockTree tree(config.epoch_blocks * config.epochs * 2);
  miner::SelfishPolicy pool(tree, base.rewards);
  miner::HonestPolicy honest(base.gamma, base.rewards);
  support::Xoshiro256 rng(base.seed);
  DifficultyController controller(config.controller);

  RetargetResult result;
  result.epochs.reserve(static_cast<std::size_t>(config.epochs));

  double now = 0.0;
  // Runaway guard: a single epoch can stall only while one race is
  // unresolved; 1000x the epoch length is far beyond any real excursion.
  const std::uint64_t max_events_per_epoch = config.epoch_blocks * 1000;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const double difficulty = controller.difficulty();
    const double rate = config.hash_rate / difficulty;
    // Epochs are measured in *finalized* main-chain growth: everything at or
    // below the pool policy's fork base is agreed by all miners. A single
    // override can finalize several blocks at once, so the segment length is
    // >= epoch_blocks rather than exactly equal.
    const std::uint32_t start_height = tree.height(pool.fork_base());
    const std::uint32_t goal_height =
        start_height + static_cast<std::uint32_t>(config.epoch_blocks);
    const double epoch_start_time = now;

    std::uint64_t events = 0;
    while (tree.height(pool.fork_base()) < goal_height &&
           events < max_events_per_epoch) {
      now += rng.exponential(rate);
      ++events;
      // In control mode the pool's hash power mines honestly like everyone.
      if (base.pool_uses_selfish_strategy && rng.bernoulli(base.alpha)) {
        pool.on_pool_block(now);
      } else {
        const auto view = pool.public_view();
        const auto b = honest.mine_block(
            tree, honest.choose_parent(view, rng), now, 0);
        pool.on_honest_block(b, now);
      }
    }
    ETHSM_ENSURES(events < max_events_per_epoch,
                  "difficulty epoch failed to finalize (runaway race)");

    // Account the finalized segment (start_height, current base height].
    const std::uint32_t end_height = tree.height(pool.fork_base());
    const auto segment = account_segment(tree, pool.fork_base(), start_height,
                                         end_height, base.rewards);
    EpochObservation observation;
    observation.wall_time = now - epoch_start_time;
    observation.regular_blocks = segment.regular;
    observation.referenced_uncles = segment.referenced_uncles;

    EpochStats stats;
    stats.difficulty = difficulty;
    stats.duration = observation.wall_time;
    stats.regular_rate =
        static_cast<double>(segment.regular) / observation.wall_time;
    stats.counted_rate = controller.counted_rate(observation);
    stats.pool_reward_rate = segment.pool_reward / observation.wall_time;
    stats.honest_reward_rate = segment.honest_reward / observation.wall_time;
    result.epochs.push_back(stats);

    controller.on_epoch(observation);
  }

  // Steady-state averages over the second half (convergence burn-in first
  // half). Weighted by epoch duration so rates compose correctly.
  double time_total = 0.0, regular = 0.0, counted = 0.0, pool_r = 0.0,
         honest_r = 0.0;
  for (std::size_t i = result.epochs.size() / 2; i < result.epochs.size();
       ++i) {
    const EpochStats& e = result.epochs[i];
    time_total += e.duration;
    regular += e.regular_rate * e.duration;
    counted += e.counted_rate * e.duration;
    pool_r += e.pool_reward_rate * e.duration;
    honest_r += e.honest_reward_rate * e.duration;
  }
  ETHSM_ENSURES(time_total > 0.0, "empty steady-state window");
  result.steady_regular_rate = regular / time_total;
  result.steady_counted_rate = counted / time_total;
  result.steady_pool_reward_rate = pool_r / time_total;
  result.steady_honest_reward_rate = honest_r / time_total;
  result.final_difficulty = controller.difficulty();
  return result;
}

}  // namespace ethsm::sim
