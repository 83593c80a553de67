#include "markov/stationary.h"

#include <gtest/gtest.h>

#include "markov/closed_form.h"
#include "support/math_util.h"
#include "support/grid_name.h"

namespace ethsm::markov {
namespace {

class StationaryParamTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {
 protected:
  // Depth 120: at alpha = 0.45 the truncation bias at depth 60 is ~5e-6,
  // at 120 it is below 1e-10 for every gamma in this grid.
  [[nodiscard]] StationaryDistribution solve(int max_lead = 120) const {
    const auto [alpha, gamma] = GetParam();
    StateSpace space(max_lead);
    TransitionModel model(space, MiningParams{alpha, gamma});
    return solve_stationary(model);
  }
};

TEST_P(StationaryParamTest, SumsToOne) {
  const auto pi = solve();
  double total = 0.0;
  for (double p : pi.values()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_P(StationaryParamTest, AllMassNonNegative) {
  const auto pi = solve();
  for (double p : pi.values()) EXPECT_GE(p, 0.0);
}

TEST_P(StationaryParamTest, GlobalBalanceHolds) {
  const auto [alpha, gamma] = GetParam();
  StateSpace space(60);
  TransitionModel model(space, MiningParams{alpha, gamma});
  const auto pi = solve_stationary(model);
  EXPECT_LT(balance_residual(pi, model), 1e-10);
}

TEST_P(StationaryParamTest, Pi00MatchesClosedForm) {
  const auto [alpha, gamma] = GetParam();
  const auto pi = solve();
  EXPECT_NEAR(pi[StateSpace::index_of({0, 0}, 120)], pi00_closed_form(alpha),
              1e-9);
}

TEST_P(StationaryParamTest, Pi11MatchesClosedForm) {
  const auto [alpha, gamma] = GetParam();
  const auto pi = solve();
  EXPECT_NEAR(pi[StateSpace::index_of({1, 1}, 120)], pi11_closed_form(alpha),
              1e-9);
}

TEST_P(StationaryParamTest, Pii0IsGeometric) {
  const auto [alpha, gamma] = GetParam();
  const auto pi = solve();
  for (int i = 1; i <= 10; ++i) {
    EXPECT_NEAR(pi[StateSpace::index_of({i, 0}, 120)],
                pii0_closed_form(alpha, i),
                1e-7 * pii0_closed_form(alpha, i) + 1e-11)
        << "i=" << i;
  }
}

TEST_P(StationaryParamTest, TruncationConverged) {
  // Deepening the truncation further must not move the answer (except in the
  // documented small-gamma corner, excluded from this grid).
  const auto pi120 = solve(120);
  const auto pi180 = solve(180);
  for (const State s : {State{0, 0}, State{5, 2}}) {
    EXPECT_NEAR(pi120[StateSpace::index_of(s, 120)],
                pi180[StateSpace::index_of(s, 180)], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaGammaGrid, StationaryParamTest,
    ::testing::Combine(::testing::Values(0.05, 0.15, 0.25, 0.35, 0.45),
                       ::testing::Values(0.3, 0.5, 0.8, 1.0)),
    [](const auto& info) {
      return testutil::grid_name(std::get<0>(info.param),
                                 std::get<1>(info.param));
    });

TEST(Stationary, Pi00DecreasesWithAlpha) {
  // Remark 2: more hash power => less time at consensus.
  double previous = 1.1;
  for (double alpha : {0.05, 0.15, 0.25, 0.35, 0.45}) {
    StateSpace space(60);
    TransitionModel model(space, MiningParams{alpha, 0.5});
    const auto pi = solve_stationary(model);
    EXPECT_LT(pi[space.idx_00()], previous);
    previous = pi[space.idx_00()];
  }
}

TEST(Stationary, AlphaZeroPutsAllMassAtConsensus) {
  StateSpace space(10);
  TransitionModel model(space, MiningParams{0.0, 0.5});
  const auto pi = solve_stationary(model);
  EXPECT_NEAR(pi[space.idx_00()], 1.0, 1e-12);
}

TEST(Stationary, MassBeyondTruncationIsNegligible) {
  // Remark 3: pi_{i,0} < 1e-6 for i >= 15 at alpha = 0.4.
  StateSpace space(60);
  TransitionModel model(space, MiningParams{0.4, 0.5});
  const auto pi = solve_stationary(model);
  EXPECT_LT(pi[space.index_of({15, 0})], 1e-6);
}

TEST(Stationary, ResidualReportedBelowTolerance) {
  StateSpace space(40);
  TransitionModel model(space, MiningParams{0.3, 0.5});
  StationaryOptions options;
  options.tolerance = 1e-12;
  const auto pi = solve_stationary(model, options);
  EXPECT_LE(pi.residual(), 1e-12);
  EXPECT_GT(pi.iterations(), 0);
}

}  // namespace
}  // namespace ethsm::markov
