// Property-based sweeps: invariants that must hold across the whole
// parameter space, checked on a dense (alpha, gamma) grid.

#include <gtest/gtest.h>

#include "analysis/absolute_revenue.h"
#include "analysis/uncle_distance.h"
#include "chain/chain_validator.h"
#include "miner/honest_policy.h"
#include "miner/selfish_policy.h"
#include "sim/simulator.h"

namespace ethsm {
namespace {

using analysis::Scenario;

class AnalysisPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {
 protected:
  [[nodiscard]] analysis::RevenueBreakdown byzantium() const {
    const auto [alpha, gamma] = GetParam();
    return analysis::compute_revenue(markov::MiningParams{alpha, gamma},
                                     rewards::RewardConfig::ethereum_byzantium(),
                                     80);
  }
};

TEST_P(AnalysisPropertyTest, AllRatesNonNegative) {
  const auto r = byzantium();
  EXPECT_GE(r.pool_static, 0.0);
  EXPECT_GE(r.pool_uncle, 0.0);
  EXPECT_GE(r.pool_nephew, 0.0);
  EXPECT_GE(r.honest_static, 0.0);
  EXPECT_GE(r.honest_uncle, 0.0);
  EXPECT_GE(r.honest_nephew, 0.0);
  EXPECT_GE(r.referenced_uncle_rate, 0.0);
}

TEST_P(AnalysisPropertyTest, RegularPlusUncleRateAtMostBlockRate) {
  const auto r = byzantium();
  EXPECT_LE(r.regular_rate + r.referenced_uncle_rate, 1.0 + 1e-10);
}

TEST_P(AnalysisPropertyTest, StaticRatesSumBelowOne) {
  // Eq. (3)/(4) discussion: rsb + rhb <= 1 with equality iff no stale blocks.
  const auto [alpha, gamma] = GetParam();
  const auto r = byzantium();
  EXPECT_LE(r.pool_static + r.honest_static, 1.0 + 1e-10);
  if (alpha > 0.0 && gamma < 1.0) {
    EXPECT_LT(r.pool_static + r.honest_static, 1.0);
  }
}

TEST_P(AnalysisPropertyTest, TotalRevenueBoundedByMaxSchedule) {
  // Per normalized block the system pays at most Ks + (Ku(1)+Kn(1)) * uncles.
  const auto r = byzantium();
  const double total = analysis::total_revenue(r, Scenario::regular_rate_one);
  const double uncle_per_regular = r.referenced_uncle_rate / r.regular_rate;
  EXPECT_LE(total,
            1.0 + uncle_per_regular * (7.0 / 8.0 + 1.0 / 32.0) + 1e-9);
}

TEST_P(AnalysisPropertyTest, RelativeShareWithinBounds) {
  const auto r = byzantium();
  EXPECT_GE(r.pool_relative_share(), 0.0);
  EXPECT_LE(r.pool_relative_share(), 1.0);
}

TEST_P(AnalysisPropertyTest, ScenarioTwoNeverExceedsScenarioOne) {
  const auto r = byzantium();
  EXPECT_LE(
      analysis::pool_absolute_revenue(r, Scenario::regular_and_uncle_rate_one),
      analysis::pool_absolute_revenue(r, Scenario::regular_rate_one) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    DenseGrid, AnalysisPropertyTest,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3,
                                         0.35, 0.4, 0.45),
                       ::testing::Values(0.25, 0.5, 0.75, 1.0)),
    [](const auto& info) {
      return "a" +
             std::to_string(static_cast<int>(std::get<0>(info.param) * 100)) +
             "_g" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(AnalysisProperty, PoolRevenueMonotoneInGamma) {
  for (double alpha : {0.15, 0.3, 0.42}) {
    double previous = -1.0;
    for (double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const auto r = analysis::compute_revenue(
          {alpha, gamma}, rewards::RewardConfig::ethereum_flat(0.5), 80);
      const double us =
          analysis::pool_absolute_revenue(r, Scenario::regular_rate_one);
      EXPECT_GE(us, previous - 1e-9) << "alpha=" << alpha << " g=" << gamma;
      previous = us;
    }
  }
}

TEST(AnalysisProperty, PoolRevenueMonotoneInAlpha) {
  for (double gamma : {0.2, 0.5, 0.9}) {
    double previous = -1.0;
    for (double alpha : {0.05, 0.15, 0.25, 0.35, 0.45}) {
      const auto r = analysis::compute_revenue(
          {alpha, gamma}, rewards::RewardConfig::ethereum_byzantium(), 80);
      const double us =
          analysis::pool_absolute_revenue(r, Scenario::regular_rate_one);
      EXPECT_GT(us, previous) << "alpha=" << alpha << " g=" << gamma;
      previous = us;
    }
  }
}

class SimulatorPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SimulatorPropertyTest, FinalTreePassesFullValidation) {
  const auto [alpha, gamma] = GetParam();
  // Re-run the simulator's moving parts directly so the final tree can be
  // handed to the independent validator.
  const auto config = rewards::RewardConfig::ethereum_byzantium();
  chain::BlockTree tree;
  miner::SelfishPolicy pool(tree, config);
  miner::HonestPolicy honest(gamma, config);
  support::Xoshiro256 rng(2718);
  double now = 0.0;
  for (int i = 0; i < 20000; ++i) {
    now += rng.exponential(1.0);
    if (rng.bernoulli(alpha)) {
      pool.on_pool_block(now);
    } else {
      const auto b = honest.mine_block(
          tree, honest.choose_parent(pool.public_view(), rng), now, 0);
      pool.on_honest_block(b, now);
    }
  }
  const auto tip = pool.finalize(now);
  const auto report = chain::validate_chain(tree, config, tip);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST_P(SimulatorPropertyTest, RewardConservationInSimulation) {
  const auto [alpha, gamma] = GetParam();
  sim::SimConfig sc;
  sc.alpha = alpha;
  sc.gamma = gamma;
  sc.num_blocks = 30'000;
  sc.seed = 314159;
  const auto r = sim::run_simulation(sc);
  // Static rewards paid == number of regular blocks (Ks = 1).
  const double statics =
      r.ledger.of(chain::MinerClass::selfish).static_reward +
      r.ledger.of(chain::MinerClass::honest).static_reward;
  EXPECT_DOUBLE_EQ(statics, static_cast<double>(r.ledger.regular_total()));
  // Nephew rewards == referenced uncles / 32 (constant schedule).
  const double nephews =
      r.ledger.of(chain::MinerClass::selfish).nephew_reward +
      r.ledger.of(chain::MinerClass::honest).nephew_reward;
  EXPECT_NEAR(nephews,
              static_cast<double>(r.ledger.referenced_uncle_total()) / 32.0,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimulatorPropertyTest,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.45),
                       ::testing::Values(0.0, 0.5, 1.0)),
    [](const auto& info) {
      return "a" +
             std::to_string(static_cast<int>(std::get<0>(info.param) * 100)) +
             "_g" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(AblationProperty, EthereumUncleCapBarelyChangesRevenue) {
  // DESIGN.md decision 4: the paper's unlimited-reference assumption vs real
  // Ethereum's cap of 2. At moderate alpha the difference must be small --
  // this quantifies the modelling gap rather than assuming it away.
  sim::SimConfig unlimited;
  unlimited.alpha = 0.3;
  unlimited.gamma = 0.5;
  unlimited.num_blocks = 150'000;
  unlimited.seed = 2021;
  auto capped = unlimited;
  capped.rewards.max_uncles_per_block = 2;
  const auto ru = sim::run_many(unlimited, 3);
  const auto rc = sim::run_many(capped, 3);
  EXPECT_NEAR(ru.pool_revenue_s1.mean(), rc.pool_revenue_s1.mean(), 0.01);
}

}  // namespace
}  // namespace ethsm
