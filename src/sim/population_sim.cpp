#include "sim/population_sim.h"

#include <numeric>

#include "chain/block_tree.h"
#include "miner/honest_policy.h"
#include "miner/selfish_policy.h"
#include "support/check.h"
#include "support/parallel.h"
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

std::uint64_t run_population_many_fingerprint(const PopulationConfig& config,
                                              int runs) {
  support::Fingerprint fp;
  fp.mix("run_population_many/v1");
  fp.mix(config.base.alpha);
  fp.mix(config.base.gamma);
  fp.mix(config.base.num_blocks);
  fp.mix(config.base.seed);
  fp.mix(rewards::sweep_fingerprint(config.base.rewards));
  fp.mix(config.base.pool_uses_selfish_strategy);
  fp.mix(config.num_miners);
  fp.mix(runs);
  return fp.digest();
}

PopulationMultiRunSummary run_population_many(
    const PopulationConfig& config, int runs,
    const support::SweepCheckpoint& checkpoint,
    support::SweepOutcome* outcome) {
  config.validate();

  PopulationMultiRunSummary summary;
  summary.pool_size = config.pool_size();
  summary.effective_alpha = config.effective_alpha();
  support::run_seeded(
      checkpoint, outcome,
      {{run_population_many_fingerprint(config, runs), config.base.seed, runs}},
      [&config](std::size_t, std::uint64_t seed) {
        PopulationConfig run_config = config;
        run_config.base.seed = seed;
        return run_population_simulation(run_config);
      },
      [&summary](std::size_t, const PopulationResult& r) {
        summary.sim.absorb(r.sim);
        summary.pool_member_share.add(r.pool_member_share());
      });
  return summary;
}

}  // namespace ethsm::sim

namespace ethsm::support {

void CheckpointCodec<sim::PopulationResult>::encode(
    ByteWriter& w, const sim::PopulationResult& result) {
  CheckpointCodec<sim::SimResult>::encode(w, result.sim);
  w.f64_vec(result.per_miner_reward);
  w.u32(result.pool_size);
  w.f64(result.effective_alpha);
}

sim::PopulationResult CheckpointCodec<sim::PopulationResult>::decode(
    ByteReader& r) {
  sim::PopulationResult result;
  result.sim = CheckpointCodec<sim::SimResult>::decode(r);
  result.per_miner_reward = r.f64_vec();
  result.pool_size = r.u32();
  result.effective_alpha = r.f64();
  return result;
}

}  // namespace ethsm::support
