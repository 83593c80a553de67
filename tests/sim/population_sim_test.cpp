#include "sim/population_sim.h"

#include <gtest/gtest.h>

#include <numeric>

#include "sim/simulator.h"

namespace ethsm::sim {
namespace {

PopulationConfig paper_config() {
  PopulationConfig c;
  c.num_miners = 1000;            // the paper's n
  c.base.alpha = 0.3;             // pool controls 300 of them
  c.base.gamma = 0.5;
  c.base.num_blocks = 30'000;
  c.base.seed = 7;
  return c;
}

TEST(PopulationConfig, PoolSizeSnapsAlpha) {
  PopulationConfig c;
  c.num_miners = 1000;
  c.base.alpha = 0.4501;
  EXPECT_EQ(c.pool_size(), 450u);
  EXPECT_NEAR(c.effective_alpha(), 0.45, 1e-12);
}

TEST(PopulationConfig, Validation) {
  PopulationConfig c;
  c.num_miners = 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(PopulationSim, Deterministic) {
  const auto a = run_population_simulation(paper_config());
  const auto b = run_population_simulation(paper_config());
  EXPECT_DOUBLE_EQ(a.sim.pool_absolute_revenue(Scenario::regular_rate_one),
                   b.sim.pool_absolute_revenue(Scenario::regular_rate_one));
}

TEST(PopulationSim, PerMinerRewardsSumToTotal) {
  const auto r = run_population_simulation(paper_config());
  const double per_miner_total = std::accumulate(
      r.per_miner_reward.begin(), r.per_miner_reward.end(), 0.0);
  const double class_total =
      r.sim.ledger.of(chain::MinerClass::selfish).total() +
      r.sim.ledger.of(chain::MinerClass::honest).total();
  EXPECT_NEAR(per_miner_total, class_total, 1e-6);
}

TEST(PopulationSim, PoolMembersSplitEqually) {
  const auto r = run_population_simulation(paper_config());
  ASSERT_GT(r.pool_size, 0u);
  const double share = r.per_miner_reward[0];
  for (std::uint32_t m = 1; m < r.pool_size; ++m) {
    EXPECT_DOUBLE_EQ(r.per_miner_reward[m], share);
  }
}

TEST(PopulationSim, PoolMemberShareMatchesClassShare) {
  const auto r = run_population_simulation(paper_config());
  EXPECT_NEAR(r.pool_member_share(), r.sim.pool_relative_share(), 1e-9);
}

TEST(PopulationSim, HonestMinersEarnComparably) {
  // Honest miners have equal hash power; no single miner should earn wildly
  // more than the per-capita honest total.
  const auto r = run_population_simulation(paper_config());
  const double honest_total =
      r.sim.ledger.of(chain::MinerClass::honest).total();
  const auto honest_count =
      static_cast<double>(1000 - r.pool_size);
  const double mean = honest_total / honest_count;
  for (std::uint32_t m = r.pool_size; m < 1000; ++m) {
    EXPECT_LT(r.per_miner_reward[m], mean * 3.0);
  }
}

TEST(PopulationSim, AgreesWithAggregateSimulator) {
  auto pop_config = paper_config();
  pop_config.base.num_blocks = 120'000;
  const auto pop = run_population_simulation(pop_config);

  SimConfig agg_config = pop_config.base;
  agg_config.alpha = pop.effective_alpha;
  const auto agg = run_many({agg_config}, 4).front();

  const double pop_us =
      pop.sim.pool_absolute_revenue(Scenario::regular_rate_one);
  // The aggregate gamma-as-Bernoulli abstraction and the per-miner
  // first-seen preferences must agree statistically.
  EXPECT_NEAR(pop_us, agg.pool_revenue_s1.mean(),
              5.0 * agg.pool_revenue_s1.ci_halfwidth() + 0.01);
}

TEST(PopulationSim, HonestPoolControlMatchesHashShare) {
  auto c = paper_config();
  c.base.pool_uses_selfish_strategy = false;
  const auto r = run_population_simulation(c);
  EXPECT_NEAR(r.pool_member_share(), r.effective_alpha, 0.02);
}

TEST(PopulationSim, MinedBlocksRoughlyUniformAcrossMiners) {
  const auto r = run_population_simulation(paper_config());
  // 30k blocks over 1000 miners: each mined ~30; pool + honest partition.
  EXPECT_NEAR(static_cast<double>(r.sim.blocks_mined_pool) / 30'000.0, 0.3,
              0.02);
}

}  // namespace
}  // namespace ethsm::sim
