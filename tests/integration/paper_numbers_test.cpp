// Regression tests pinning the reproduction to the numbers the paper reports
// (Sec. V, Sec. VI). Tolerances reflect the paper's own numeric precision
// (3 decimals, truncated state space, 10-run simulation averages).

#include <gtest/gtest.h>

#include "analysis/revenue_closed_form.h"
#include "analysis/sweep.h"
#include "analysis/threshold.h"
#include "analysis/uncle_distance.h"

namespace ethsm {
namespace {

using analysis::Scenario;

TEST(PaperFig8, ThresholdNearPoint163) {
  // "when alpha is above 0.163, the selfish pool can always gain higher
  // revenue" (gamma = 0.5, Ku = 4/8).
  const auto t = analysis::profitability_threshold(
      0.5, rewards::RewardConfig::ethereum_flat(0.5),
      Scenario::regular_rate_one);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.163, 0.002);
}

TEST(PaperFig8, RevenueCurveShape) {
  analysis::RevenueCurveOptions opt;  // defaults = Fig. 8 setup
  const auto curve = analysis::revenue_curve({opt}).front();
  ASSERT_EQ(curve.size(), 19u);
  // Pool revenue below the diagonal before the threshold, above after.
  for (const auto& p : curve) {
    if (p.alpha < 0.15 && p.alpha > 0.0) {
      EXPECT_LT(p.pool_revenue, p.alpha);
    }
    if (p.alpha > 0.18) {
      EXPECT_GT(p.pool_revenue, p.alpha);
    }
  }
  // Honest revenue decreases with alpha; pool revenue increases.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].pool_revenue, curve[i - 1].pool_revenue);
    EXPECT_LT(curve[i].honest_revenue, curve[i - 1].honest_revenue);
  }
}

TEST(PaperFig8, BelowThresholdLossIsSmall) {
  // "when alpha is below the threshold 0.163, the selfish pool loses just a
  // small amount of revenue ... quite different from Bitcoin".
  const double alpha = 0.10;
  const auto eth = analysis::compute_revenue(
      {alpha, 0.5}, rewards::RewardConfig::ethereum_flat(0.5), 80);
  const double eth_loss =
      alpha - analysis::pool_absolute_revenue(eth, Scenario::regular_rate_one);
  const double btc_loss = alpha - analysis::eyal_sirer_revenue(alpha, 0.5);
  EXPECT_GT(eth_loss, 0.0);
  EXPECT_LT(eth_loss, 0.02);          // small in absolute terms
  EXPECT_LT(eth_loss, btc_loss / 2);  // and much smaller than Bitcoin's
}

TEST(PaperFig9, HigherUncleRewardHigherRevenue) {
  const double alpha = 0.3;
  double previous_pool = 0.0, previous_total = 0.0;
  for (double ku : {2.0 / 8, 4.0 / 8, 7.0 / 8}) {
    const auto r = analysis::compute_revenue(
        {alpha, 0.5}, rewards::RewardConfig::ethereum_flat(ku), 80);
    const double pool =
        analysis::pool_absolute_revenue(r, Scenario::regular_rate_one);
    const double total =
        analysis::total_revenue(r, Scenario::regular_rate_one);
    EXPECT_GT(pool, previous_pool);
    EXPECT_GT(total, previous_total);
    previous_pool = pool;
    previous_total = total;
  }
}

TEST(PaperFig9, TotalRevenueSoarsTo135Percent) {
  // "the total revenue ... soars to 135% of the revenue without selfish
  // mining, when Ku = 7/8 Ks and alpha = 0.45". The paper's flat schedules
  // pay "regardless of the distance": with the reference horizon uncapped
  // the total is 1.347; under Ethereum's structural cap of 6 it is 1.269.
  const auto r = analysis::compute_revenue(
      {0.45, 0.5}, rewards::RewardConfig::ethereum_flat(7.0 / 8.0, 100), 300);
  const double total = analysis::total_revenue(r, Scenario::regular_rate_one);
  EXPECT_NEAR(total, 1.35, 0.02);

  const auto capped = analysis::compute_revenue(
      {0.45, 0.5}, rewards::RewardConfig::ethereum_flat(7.0 / 8.0), 300);
  EXPECT_NEAR(analysis::total_revenue(capped, Scenario::regular_rate_one),
              1.269, 0.02);
}

TEST(PaperFig9, ByzantineScheduleBehavesLikeSevenEighthsForPool) {
  // "the uncle reward function Ku(.) has the same effect as simply setting
  // Ku = 7/8 for the selfish pool's revenue" (pool uncles always d = 1).
  const double alpha = 0.35;
  const auto byz = analysis::compute_revenue(
      {alpha, 0.5}, rewards::RewardConfig::ethereum_byzantium(), 80);
  const auto flat78 = analysis::compute_revenue(
      {alpha, 0.5}, rewards::RewardConfig::ethereum_flat(7.0 / 8.0), 80);
  EXPECT_NEAR(byz.pool_uncle, flat78.pool_uncle, 1e-9);
}

TEST(PaperFig10, Scenario1AlwaysBelowBitcoin) {
  analysis::ThresholdCurveOptions opt;
  opt.gammas = {0.0, 0.25, 0.5, 0.75, 0.95};
  opt.threshold.tolerance = 1e-5;
  const auto curve = analysis::threshold_curve(opt);
  for (const auto& p : curve) {
    ASSERT_TRUE(p.ethereum_scenario1.has_value());
    EXPECT_LT(*p.ethereum_scenario1, p.bitcoin + 1e-9) << "gamma=" << p.gamma;
  }
}

TEST(PaperFig10, Scenario2CrossesBitcoinNearGamma039) {
  analysis::ThresholdCurveOptions opt;
  opt.gammas = {0.3, 0.35, 0.4, 0.45, 0.5};
  opt.threshold.tolerance = 1e-5;
  const auto curve = analysis::threshold_curve(opt);
  // Below the crossover Ethereum scenario 2 is under Bitcoin, above it over.
  ASSERT_TRUE(curve.front().ethereum_scenario2.has_value());
  ASSERT_TRUE(curve.back().ethereum_scenario2.has_value());
  EXPECT_LT(*curve.front().ethereum_scenario2, curve.front().bitcoin);
  EXPECT_GT(*curve.back().ethereum_scenario2, curve.back().bitcoin);
  // The sign change happens somewhere in [0.3, 0.5] -- the paper says 0.39.
  double crossover = -1.0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const double prev = *curve[i - 1].ethereum_scenario2 - curve[i - 1].bitcoin;
    const double cur = *curve[i].ethereum_scenario2 - curve[i].bitcoin;
    if (prev <= 0.0 && cur > 0.0) crossover = curve[i].gamma;
  }
  EXPECT_NEAR(crossover, 0.40, 0.051);
}

TEST(PaperSec6, FlatScheduleRaisesThresholds) {
  // "the threshold increases from 0.054 to 0.163 in scenario 1, and from
  // 0.270 to 0.356 in scenario 2" (gamma = 0.5, Ku(.) -> flat 4/8).
  analysis::ThresholdOptions o;
  o.tolerance = 1e-5;
  const auto byz = rewards::RewardConfig::ethereum_byzantium();
  const auto flat = rewards::RewardConfig::ethereum_flat(0.5);

  const auto s1_before = analysis::profitability_threshold(
      0.5, byz, Scenario::regular_rate_one, o);
  const auto s1_after = analysis::profitability_threshold(
      0.5, flat, Scenario::regular_rate_one, o);
  ASSERT_TRUE(s1_before && s1_after);
  EXPECT_NEAR(*s1_before, 0.054, 0.002);
  EXPECT_NEAR(*s1_after, 0.163, 0.002);

  const auto s2_before = analysis::profitability_threshold(
      0.5, byz, Scenario::regular_and_uncle_rate_one, o);
  const auto s2_after = analysis::profitability_threshold(
      0.5, flat, Scenario::regular_and_uncle_rate_one, o);
  ASSERT_TRUE(s2_before && s2_after);
  EXPECT_NEAR(*s2_before, 0.270, 0.006);
  EXPECT_NEAR(*s2_after, 0.356, 0.003);
}

TEST(PaperTableII, ReproducedAtBothAlphas) {
  const auto d30 = analysis::honest_uncle_distance_distribution({0.3, 0.5});
  const auto d45 = analysis::honest_uncle_distance_distribution({0.45, 0.5});
  EXPECT_NEAR(d30.expectation, 1.75, 0.01);
  EXPECT_NEAR(d45.expectation, 2.72, 0.01);
  EXPECT_NEAR(d30.fraction[1], 0.527, 0.001);
  EXPECT_NEAR(d45.fraction[1], 0.284, 0.001);
}

TEST(PaperSec5Setup, SimulationGridMatchesPaper) {
  const auto alphas = analysis::fig8_alpha_grid();
  EXPECT_DOUBLE_EQ(alphas.front(), 0.0);
  EXPECT_DOUBLE_EQ(alphas.back(), 0.45);  // "pool controls at most 450 miners"
  const auto gammas = analysis::fig10_gamma_grid();
  EXPECT_DOUBLE_EQ(gammas.front(), 0.0);
  EXPECT_DOUBLE_EQ(gammas.back(), 1.0);
}

}  // namespace
}  // namespace ethsm
