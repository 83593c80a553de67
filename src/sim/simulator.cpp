#include "sim/simulator.h"

#include "chain/block_tree.h"
#include "miner/honest_policy.h"
#include "miner/selfish_policy.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace ethsm::sim {

namespace {

/// Per-thread block-tree arena: every run resets it instead of reallocating
/// ~100k nodes, so multi-run sweeps reuse capacity run after run. Results are
/// unaffected (reset() restores the genesis-only state exactly).
chain::BlockTree& scratch_tree(std::uint64_t num_blocks) {
  return chain::thread_local_tree(num_blocks + 1);
}

/// Fingerprint of everything a run_many job depends on besides its index.
std::uint64_t many_fingerprint(const char* driver, const SimConfig& config,
                               int runs) {
  support::Fingerprint fp;
  fp.mix(driver);
  fp.mix(config.alpha);
  fp.mix(config.gamma);
  fp.mix(config.num_blocks);
  fp.mix(config.seed);
  fp.mix(rewards::sweep_fingerprint(config.rewards));
  fp.mix(config.pool_uses_selfish_strategy);
  fp.mix(runs);
  return fp.digest();
}

/// Control run: everybody (including the pool's hash power) follows the
/// protocol. With zero propagation delay there are no forks at all, so every
/// block is regular and revenue share == hash share.
SimResult run_all_honest(const SimConfig& config) {
  chain::BlockTree& tree = scratch_tree(config.num_blocks);
  miner::HonestPolicy honest(config.gamma, config.rewards);
  support::Xoshiro256 rng(config.seed);

  SimResult result;
  chain::BlockId tip = tree.genesis();
  double now = 0.0;
  for (std::uint64_t n = 0; n < config.num_blocks; ++n) {
    now += rng.exponential(1.0);
    const bool pool_mined = rng.bernoulli(config.alpha);
    // Both classes behave identically; only the block's ownership differs.
    const chain::BlockId id = tree.append(
        tip,
        pool_mined ? chain::MinerClass::selfish : chain::MinerClass::honest,
        0, now);
    tree.publish(id, now);
    tip = id;
    if (pool_mined) {
      ++result.blocks_mined_pool;
    } else {
      ++result.blocks_mined_honest;
    }
  }
  result.duration = now;
  result.ledger = chain::settle_rewards(tree, tip, config.rewards);
  return result;
}

/// The block race against an attacking pool. `Pool` is SelfishPolicy
/// (Algorithm 1) or StubbornPolicy; both expose on_pool_block, public_view,
/// on_honest_block and finalize, and both mine on `tree`.
template <typename Pool>
SimResult mine_against(const SimConfig& config, chain::BlockTree& tree,
                       Pool& pool) {
  miner::HonestPolicy honest(config.gamma, config.rewards);
  support::Xoshiro256 rng(config.seed);

  SimResult result;
  double now = 0.0;
  for (std::uint64_t n = 0; n < config.num_blocks; ++n) {
    now += rng.exponential(1.0);
    if (rng.bernoulli(config.alpha)) {
      pool.on_pool_block(now);
      ++result.blocks_mined_pool;
    } else {
      const auto view = pool.public_view();
      const chain::BlockId parent = honest.choose_parent(view, rng);
      const chain::BlockId b = honest.mine_block(tree, parent, now, 0);
      pool.on_honest_block(b, now);
      ++result.blocks_mined_honest;
    }
  }
  const chain::BlockId tip = pool.finalize(now);
  result.duration = now;
  result.ledger = chain::settle_rewards(tree, tip, config.rewards);

  ETHSM_ENSURES(result.blocks_mined_pool + result.blocks_mined_honest ==
                    config.num_blocks,
                "block conservation violated");
  return result;
}

}  // namespace

std::uint64_t run_many_fingerprint(const SimConfig& config, int runs) {
  return many_fingerprint("run_many/v1", config, runs);
}

std::uint64_t run_stubborn_many_fingerprint(
    const SimConfig& config, const miner::StubbornConfig& strategy, int runs) {
  support::Fingerprint fp;
  fp.mix(many_fingerprint("run_stubborn_many/v1", config, runs));
  fp.mix(strategy.lead_stubborn);
  fp.mix(strategy.equal_fork_stubborn);
  fp.mix(strategy.trail_stubbornness);
  return fp.digest();
}

SimResult run_simulation(const SimConfig& config) {
  config.validate();
  if (!config.pool_uses_selfish_strategy) return run_all_honest(config);

  chain::BlockTree& tree = scratch_tree(config.num_blocks);
  miner::SelfishPolicy pool(
      tree, miner::SelfishPolicyConfig::from_rewards(config.rewards));
  return mine_against(config, tree, pool);
}

MultiRunSummary run_many(const SimConfig& config, int runs,
                         const support::SweepCheckpoint& checkpoint,
                         support::SweepOutcome* outcome) {
  return run_many(std::vector<SimConfig>{config}, runs, checkpoint, outcome)
      .front();
}

std::vector<MultiRunSummary> run_many(
    const std::vector<SimConfig>& configs, int runs,
    const support::SweepCheckpoint& checkpoint,
    support::SweepOutcome* outcome) {
  std::vector<support::SeededSweep> sweeps;
  for (const SimConfig& config : configs) {
    config.validate();
    sweeps.push_back({run_many_fingerprint(config, runs), config.seed, runs});
  }
  std::vector<MultiRunSummary> summaries(configs.size());
  support::run_seeded(
      checkpoint, outcome, sweeps,
      [&configs](std::size_t s, std::uint64_t seed) {
        SimConfig run_config = configs[s];
        run_config.seed = seed;
        return run_simulation(run_config);
      },
      [&summaries](std::size_t s, const SimResult& r) {
        summaries[s].absorb(r);
      });
  return summaries;
}

SimResult run_stubborn_simulation(const SimConfig& config,
                                  const miner::StubbornConfig& strategy) {
  config.validate();
  ETHSM_EXPECTS(config.pool_uses_selfish_strategy,
                "stubborn variants require an attacking pool");

  chain::BlockTree& tree = scratch_tree(config.num_blocks);
  miner::StubbornConfig pool_config = strategy;
  pool_config.reference_horizon = config.rewards.reference_horizon();
  pool_config.max_uncles_per_block = config.rewards.max_uncles_per_block;
  pool_config.reference_uncles = pool_config.reference_horizon > 0;
  miner::StubbornPolicy pool(tree, pool_config);
  return mine_against(config, tree, pool);
}

MultiRunSummary run_stubborn_many(const SimConfig& config,
                                  const miner::StubbornConfig& strategy,
                                  int runs,
                                  const support::SweepCheckpoint& checkpoint,
                                  support::SweepOutcome* outcome) {
  return run_stubborn_many(std::vector<StubbornSweep>{{config, strategy}},
                           runs, checkpoint, outcome)
      .front();
}

std::vector<MultiRunSummary> run_stubborn_many(
    const std::vector<StubbornSweep>& sweeps, int runs,
    const support::SweepCheckpoint& checkpoint,
    support::SweepOutcome* outcome) {
  std::vector<support::SeededSweep> seeded;
  for (const StubbornSweep& sweep : sweeps) {
    sweep.config.validate();
    ETHSM_EXPECTS(sweep.config.pool_uses_selfish_strategy,
                  "stubborn variants require an attacking pool");
    seeded.push_back(
        {run_stubborn_many_fingerprint(sweep.config, sweep.strategy, runs),
         sweep.config.seed, runs});
  }
  std::vector<MultiRunSummary> summaries(sweeps.size());
  support::run_seeded(
      checkpoint, outcome, seeded,
      [&sweeps](std::size_t s, std::uint64_t seed) {
        SimConfig run_config = sweeps[s].config;
        run_config.seed = seed;
        return run_stubborn_simulation(run_config, sweeps[s].strategy);
      },
      [&summaries](std::size_t s, const SimResult& r) {
        summaries[s].absorb(r);
      });
  return summaries;
}

}  // namespace ethsm::sim
