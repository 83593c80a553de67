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

/// The driver body behind both list forms: sweep s runs
/// run_simulation(sweeps[s].config, sweeps[s].strategy) for each seed, keyed
/// by `keys[s]` in the checkpoint store.
std::vector<MultiRunSummary> run_sweeps(
    const std::vector<StubbornSweep>& sweeps,
    const std::vector<std::uint64_t>& keys, int runs,
    const support::SweepCheckpoint& checkpoint,
    support::SweepOutcome* outcome) {
  std::vector<support::SeededSweep> seeded;
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    seeded.push_back({keys[s], sweeps[s].config.seed, runs});
  }
  std::vector<MultiRunSummary> summaries(sweeps.size());
  support::run_seeded(
      checkpoint, outcome, seeded,
      [&sweeps](std::size_t s, std::uint64_t seed) {
        SimConfig run_config = sweeps[s].config;
        run_config.seed = seed;
        return run_simulation(run_config, sweeps[s].strategy);
      },
      [&summaries](std::size_t s, const SimResult& r) {
        summaries[s].absorb(r);
      });
  return summaries;
}

}  // namespace

std::uint64_t run_many_fingerprint(const SimConfig& config, int runs) {
  return many_fingerprint("run_many/v1", config, runs);
}

std::uint64_t run_stubborn_many_fingerprint(
    const SimConfig& config, const miner::Strategy& strategy, int runs) {
  support::Fingerprint fp;
  fp.mix(many_fingerprint("run_stubborn_many/v1", config, runs));
  fp.mix(strategy.lead);
  fp.mix(strategy.fork);
  fp.mix(strategy.trail);
  return fp.digest();
}

SimResult run_simulation(const SimConfig& config,
                         const miner::Strategy& strategy) {
  config.validate();
  if (!config.pool_uses_selfish_strategy) return run_all_honest(config);

  chain::BlockTree& tree = scratch_tree(config.num_blocks);
  miner::SelfishPolicy pool(tree, config.rewards, strategy);
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
  std::vector<StubbornSweep> sweeps;
  std::vector<std::uint64_t> keys;
  for (const SimConfig& config : configs) {
    config.validate();
    sweeps.push_back({config, {}});
    keys.push_back(run_many_fingerprint(config, runs));
  }
  return run_sweeps(sweeps, keys, runs, checkpoint, outcome);
}

std::vector<MultiRunSummary> run_stubborn_many(
    const std::vector<StubbornSweep>& sweeps, int runs,
    const support::SweepCheckpoint& checkpoint,
    support::SweepOutcome* outcome) {
  std::vector<std::uint64_t> keys;
  for (const StubbornSweep& sweep : sweeps) {
    sweep.config.validate();
    ETHSM_EXPECTS(sweep.config.pool_uses_selfish_strategy,
                  "stubborn variants require an attacking pool");
    keys.push_back(
        run_stubborn_many_fingerprint(sweep.config, sweep.strategy, runs));
  }
  return run_sweeps(sweeps, keys, runs, checkpoint, outcome);
}

}  // namespace ethsm::sim
