#include "analysis/bitcoin_es.h"

#include <gtest/gtest.h>

#include "analysis/revenue.h"
#include "analysis/revenue_closed_form.h"
#include "support/grid_name.h"

namespace ethsm::analysis {
namespace {

TEST(EyalSirer, ThresholdLandmarks) {
  EXPECT_NEAR(eyal_sirer_threshold(0.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(eyal_sirer_threshold(0.5), 0.25, 1e-12);  // the famous 25%
  EXPECT_NEAR(eyal_sirer_threshold(1.0), 0.0, 1e-12);
}

TEST(EyalSirer, ThresholdMonotoneInGamma) {
  double previous = 1.0;
  for (double g = 0.0; g <= 1.0; g += 0.1) {
    const double t = eyal_sirer_threshold(g);
    EXPECT_LT(t, previous);
    previous = t;
  }
}

TEST(EyalSirer, RevenueIsZeroAtZeroAlpha) {
  EXPECT_DOUBLE_EQ(eyal_sirer_revenue(0.0, 0.5), 0.0);
}

TEST(EyalSirer, RevenueExceedsAlphaAboveThreshold) {
  for (double gamma : {0.0, 0.5}) {
    const double t = eyal_sirer_threshold(gamma);
    EXPECT_LT(eyal_sirer_revenue(t - 0.03, gamma), t - 0.03);
    EXPECT_GT(eyal_sirer_revenue(t + 0.03, gamma), t + 0.03);
  }
}

TEST(EyalSirer, RejectsOutOfRangeInputs) {
  EXPECT_THROW(eyal_sirer_revenue(0.6, 0.5), std::invalid_argument);
  EXPECT_THROW(eyal_sirer_revenue(0.3, 1.5), std::invalid_argument);
  EXPECT_THROW((void)eyal_sirer_threshold(-0.1), std::invalid_argument);
}

class EsEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EsEquivalenceTest, MarkovPipelineWithBitcoinRulesMatchesClosedForm) {
  // Running the full Ethereum analysis with Ku = Kn = 0 must collapse to the
  // Eyal–Sirer relative-revenue formula: the pool's share of static rewards.
  const auto [alpha, gamma] = GetParam();
  const auto r = compute_revenue(markov::MiningParams{alpha, gamma},
                                 rewards::RewardConfig::bitcoin(), 80);
  const double share = r.pool_total() / (r.pool_total() + r.honest_total());
  EXPECT_NEAR(share, eyal_sirer_revenue(alpha, gamma), 2e-6)
      << "alpha=" << alpha << " gamma=" << gamma;
}

INSTANTIATE_TEST_SUITE_P(
    AlphaGammaGrid, EsEquivalenceTest,
    ::testing::Combine(::testing::Values(0.1, 0.2, 0.3, 0.4),
                       ::testing::Values(0.3, 0.5, 0.8)),
    [](const auto& info) {
      return testutil::grid_name(std::get<0>(info.param),
                                 std::get<1>(info.param));
    });

}  // namespace
}  // namespace ethsm::analysis
