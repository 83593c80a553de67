#include "sim/simulator.h"

#include <gtest/gtest.h>

namespace ethsm::sim {
namespace {

SimConfig small_config() {
  SimConfig c;
  c.alpha = 0.3;
  c.gamma = 0.5;
  c.num_blocks = 30'000;
  c.seed = 42;
  return c;
}

TEST(Simulator, DeterministicGivenSeed) {
  const auto a = run_simulation(small_config());
  const auto b = run_simulation(small_config());
  EXPECT_EQ(a.blocks_mined_pool, b.blocks_mined_pool);
  EXPECT_DOUBLE_EQ(a.pool_absolute_revenue(Scenario::regular_rate_one),
                   b.pool_absolute_revenue(Scenario::regular_rate_one));
  EXPECT_DOUBLE_EQ(a.duration, b.duration);
}

TEST(Simulator, DifferentSeedsDiffer) {
  auto c = small_config();
  const auto a = run_simulation(c);
  c.seed = 43;
  const auto b = run_simulation(c);
  EXPECT_NE(a.blocks_mined_pool, b.blocks_mined_pool);
}

TEST(Simulator, BlockConservation) {
  const auto r = run_simulation(small_config());
  EXPECT_EQ(r.blocks_mined_pool + r.blocks_mined_honest, 30'000u);
  // Every mined block is classified exactly once.
  const auto classified =
      r.ledger.fate_of(chain::MinerClass::selfish).total() +
      r.ledger.fate_of(chain::MinerClass::honest).total();
  EXPECT_EQ(classified, 30'000u);
}

TEST(Simulator, MinedSharesMatchAlpha) {
  const auto r = run_simulation(small_config());
  EXPECT_NEAR(static_cast<double>(r.blocks_mined_pool) / 30'000.0, 0.3, 0.01);
}

TEST(Simulator, ValidatesConfig) {
  auto c = small_config();
  c.alpha = 0.7;
  EXPECT_THROW(run_simulation(c), std::invalid_argument);
  c = small_config();
  c.num_blocks = 0;
  EXPECT_THROW(run_simulation(c), std::invalid_argument);
}

TEST(Simulator, AllHonestControlHasNoStaleBlocks) {
  auto c = small_config();
  c.pool_uses_selfish_strategy = false;
  const auto r = run_simulation(c);
  EXPECT_EQ(r.ledger.fate_of(chain::MinerClass::selfish).stale, 0u);
  EXPECT_EQ(r.ledger.fate_of(chain::MinerClass::honest).stale, 0u);
  EXPECT_EQ(r.ledger.referenced_uncle_total(), 0u);
  // Revenue share equals hash share (fair protocol).
  EXPECT_NEAR(r.pool_relative_share(), c.alpha, 0.01);
  EXPECT_NEAR(r.pool_absolute_revenue(Scenario::regular_rate_one), c.alpha,
              0.01);
}

TEST(Simulator, SelfishPoolAtLowAlphaLosesRevenue) {
  auto c = small_config();
  c.alpha = 0.08;  // below the flat-4/8 threshold of 0.163
  c.rewards = rewards::RewardConfig::ethereum_flat(0.5);
  c.num_blocks = 100'000;
  const auto r = run_simulation(c);
  EXPECT_LT(r.pool_absolute_revenue(Scenario::regular_rate_one), c.alpha);
}

TEST(Simulator, SelfishPoolAtHighAlphaGainsRevenue) {
  auto c = small_config();
  c.alpha = 0.40;
  c.num_blocks = 100'000;
  const auto r = run_simulation(c);
  EXPECT_GT(r.pool_absolute_revenue(Scenario::regular_rate_one), c.alpha);
}

TEST(Simulator, UnclesAppearUnderSelfishMining) {
  const auto r = run_simulation(small_config());
  EXPECT_GT(r.ledger.referenced_uncle_total(), 0u);
  EXPECT_GT(r.uncle_rate(), 0.0);
}

TEST(Simulator, DurationApproximatesBlockCount) {
  // Unit-rate Poisson arrivals: duration ~ num_blocks.
  const auto r = run_simulation(small_config());
  EXPECT_NEAR(r.duration / 30'000.0, 1.0, 0.05);
}

TEST(Simulator, PoolUnclesOnlyAtDistanceOne) {
  // Remark 5 at simulator scale.
  const auto r = run_simulation(small_config());
  const auto& h = r.ledger.uncle_distance[static_cast<std::size_t>(
      chain::MinerClass::selfish)];
  EXPECT_GT(h.at(1), 0u);
  for (std::size_t d = 2; d < h.size(); ++d) EXPECT_EQ(h.at(d), 0u);
}

TEST(Simulator, HonestForkBlocksGoStale) {
  const auto r = run_simulation(small_config());
  // Honest fork blocks die (Case 11/12); the pool occasionally loses its
  // first lead but those become distance-1 uncles, not pure waste -- so pool
  // waste can be zero under unlimited referencing.
  EXPECT_GT(r.ledger.fate_of(chain::MinerClass::honest).stale, 0u);
}

TEST(Simulator, GammaOnePoolNeverLosesLead) {
  auto c = small_config();
  c.gamma = 1.0;
  const auto r = run_simulation(c);
  // At gamma = 1 every tie resolves toward the pool: no pool stale blocks
  // (except possibly one unresolved race at the end-of-run boundary).
  EXPECT_LE(r.ledger.fate_of(chain::MinerClass::selfish).stale, 1u);
  EXPECT_EQ(r.ledger.fate_of(chain::MinerClass::selfish).referenced_uncle, 0u);
}

TEST(Simulator, UncleCapReducesReferencedUncles) {
  auto unlimited = small_config();
  unlimited.alpha = 0.45;
  unlimited.num_blocks = 60'000;
  auto capped = unlimited;
  capped.rewards.max_uncles_per_block = 1;
  const auto ru = run_simulation(unlimited);
  const auto rc = run_simulation(capped);
  EXPECT_LE(rc.ledger.referenced_uncle_total(),
            ru.ledger.referenced_uncle_total());
}

TEST(RunMany, AggregatesAcrossSeeds) {
  auto c = small_config();
  c.num_blocks = 10'000;
  const auto summary = run_many({c}, 5).front();
  EXPECT_EQ(summary.runs, 5);
  EXPECT_EQ(summary.pool_revenue_s1.count(), 5u);
  EXPECT_GT(summary.pool_revenue_s1.mean(), 0.0);
  EXPECT_GT(summary.uncle_distance_honest.total(), 0u);
  // Independent seeds: nonzero spread.
  EXPECT_GT(summary.pool_revenue_s1.stddev(), 0.0);
}

TEST(RunMany, RejectsZeroRuns) {
  EXPECT_THROW((void)run_many({small_config()}, 0), std::invalid_argument);
}

TEST(SimResult, ScenarioNormalizers) {
  const auto r = run_simulation(small_config());
  const double n1 = r.normalizer(Scenario::regular_rate_one);
  const double n2 = r.normalizer(Scenario::regular_and_uncle_rate_one);
  EXPECT_GT(n2, n1);  // uncles exist under selfish mining
  EXPECT_DOUBLE_EQ(n2 - n1,
                   static_cast<double>(r.ledger.referenced_uncle_total()));
  EXPECT_LT(r.pool_absolute_revenue(Scenario::regular_and_uncle_rate_one),
            r.pool_absolute_revenue(Scenario::regular_rate_one));
}

TEST(Scenario, ToStringIsDescriptive) {
  EXPECT_NE(std::string(to_string(Scenario::regular_rate_one)).find("1"),
            std::string::npos);
  EXPECT_NE(
      std::string(to_string(Scenario::regular_and_uncle_rate_one)).find("2"),
      std::string::npos);
}

}  // namespace
}  // namespace ethsm::sim
