// The library's central cross-validation (paper Sec. V-A): the discrete-event
// simulator and the 2-D Markov analysis are written against the same paper
// text but share no code path for revenue; they must agree within
// Monte-Carlo error across the (alpha, gamma, schedule) grid.

#include <gtest/gtest.h>

#include "analysis/absolute_revenue.h"
#include "analysis/uncle_distance.h"
#include "sim/simulator.h"
#include "support/grid_name.h"

namespace ethsm {
namespace {

struct GridPoint {
  double alpha;
  double gamma;
  bool byzantium;  // else flat Ku = 4/8
};

class SimVsMarkov : public ::testing::TestWithParam<GridPoint> {
 protected:
  static constexpr std::uint64_t kBlocks = 100'000;
  static constexpr int kRuns = 3;

  [[nodiscard]] rewards::RewardConfig schedule() const {
    return GetParam().byzantium ? rewards::RewardConfig::ethereum_byzantium()
                                : rewards::RewardConfig::ethereum_flat(0.5);
  }
};

TEST_P(SimVsMarkov, AbsoluteRevenueAgreesInBothScenarios) {
  const auto [alpha, gamma, byz] = GetParam();
  const auto config = schedule();

  sim::SimConfig sc;
  sc.alpha = alpha;
  sc.gamma = gamma;
  sc.rewards = config;
  sc.num_blocks = kBlocks;
  sc.seed = 0xfeedULL + static_cast<std::uint64_t>(alpha * 1000) +
            static_cast<std::uint64_t>(gamma * 7);
  const auto sum = sim::run_many({sc}, kRuns).front();

  const auto r = analysis::compute_revenue(markov::MiningParams{alpha, gamma},
                                           config, 80);
  for (const auto scenario : {sim::Scenario::regular_rate_one,
                              sim::Scenario::regular_and_uncle_rate_one}) {
    const double expected = analysis::pool_absolute_revenue(r, scenario);
    const double got = sum.pool_revenue(scenario).mean();
    const double tol = 5.0 * sum.pool_revenue(scenario).ci_halfwidth() + 0.004;
    EXPECT_NEAR(got, expected, tol) << to_string(scenario);

    const double expected_h = analysis::honest_absolute_revenue(r, scenario);
    const double got_h = sum.honest_revenue(scenario).mean();
    const double tol_h =
        5.0 * sum.honest_revenue(scenario).ci_halfwidth() + 0.004;
    EXPECT_NEAR(got_h, expected_h, tol_h) << to_string(scenario);
  }
}

TEST_P(SimVsMarkov, UncleRateAgrees) {
  const auto [alpha, gamma, byz] = GetParam();
  const auto config = schedule();
  sim::SimConfig sc;
  sc.alpha = alpha;
  sc.gamma = gamma;
  sc.rewards = config;
  sc.num_blocks = kBlocks;
  sc.seed = 0xabcdULL;
  const auto sum = sim::run_many({sc}, kRuns).front();
  const auto r = analysis::compute_revenue(markov::MiningParams{alpha, gamma},
                                           config, 80);
  const double expected =
      r.regular_rate == 0.0 ? 0.0 : r.referenced_uncle_rate / r.regular_rate;
  EXPECT_NEAR(sum.uncle_rate.mean(), expected,
              5.0 * sum.uncle_rate.ci_halfwidth() + 0.004);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimVsMarkov,
    ::testing::Values(GridPoint{0.10, 0.5, true}, GridPoint{0.20, 0.5, true},
                      GridPoint{0.30, 0.5, true}, GridPoint{0.40, 0.5, true},
                      GridPoint{0.45, 0.5, true}, GridPoint{0.30, 0.0, true},
                      GridPoint{0.30, 1.0, true}, GridPoint{0.30, 0.8, true},
                      GridPoint{0.20, 0.5, false}, GridPoint{0.35, 0.5, false},
                      GridPoint{0.45, 0.5, false},
                      GridPoint{0.40, 0.2, true}),
    [](const auto& info) {
      return testutil::grid_name(info.param.alpha, info.param.gamma) +
             (info.param.byzantium ? "_byz" : "_flat");
    });

TEST(SimVsMarkovTableII, UncleDistanceDistributionAgrees) {
  // Table II cross-check: simulated honest-uncle distances vs the analytic
  // distribution at alpha = 0.3 (the sim pools all runs' histograms).
  sim::SimConfig sc;
  sc.alpha = 0.3;
  sc.gamma = 0.5;
  sc.num_blocks = 200'000;
  sc.seed = 99;
  const auto sum = sim::run_many({sc}, 3).front();
  const auto d = analysis::honest_uncle_distance_distribution({0.3, 0.5}, 80);
  for (std::size_t dist = 1; dist <= 6; ++dist) {
    const double simulated =
        sum.uncle_distance_honest.conditional_fraction(dist, 1, 6);
    EXPECT_NEAR(simulated, d.fraction[dist], 0.01) << "distance " << dist;
  }
  EXPECT_NEAR(sum.uncle_distance_honest.conditional_mean(1, 6), d.expectation,
              0.03);
}

TEST(SimVsMarkovBitcoin, EyalSirerShareAgrees) {
  sim::SimConfig sc;
  sc.alpha = 0.35;
  sc.gamma = 0.5;
  sc.rewards = rewards::RewardConfig::bitcoin();
  sc.num_blocks = 150'000;
  sc.seed = 1234;
  const auto sum = sim::run_many({sc}, 3).front();
  const auto r = analysis::compute_revenue(markov::MiningParams{0.35, 0.5},
                                           rewards::RewardConfig::bitcoin(),
                                           80);
  EXPECT_NEAR(sum.pool_share.mean(), r.pool_relative_share(),
              5.0 * sum.pool_share.ci_halfwidth() + 0.004);
}

}  // namespace
}  // namespace ethsm
