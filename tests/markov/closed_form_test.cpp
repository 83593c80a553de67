#include "markov/closed_form.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "markov/stationary.h"
#include "support/grid_name.h"

namespace ethsm::markov {
namespace {

TEST(FMultisum, AppendixAExampleZEqualsOne) {
  // f(x, y, 1) = x - y - 1.
  for (int y = 0; y <= 5; ++y) {
    for (int x = y + 2; x <= y + 8; ++x) {
      EXPECT_DOUBLE_EQ(f_multisum(x, y, 1), x - y - 1.0) << x << "," << y;
    }
  }
}

TEST(FMultisum, AppendixAExampleZEqualsTwo) {
  // f(x, y, 2) = (x - y - 1)(x - y + 2) / 2.
  for (int y = 0; y <= 5; ++y) {
    for (int x = y + 2; x <= y + 8; ++x) {
      EXPECT_DOUBLE_EQ(f_multisum(x, y, 2),
                       (x - y - 1.0) * (x - y + 2.0) / 2.0)
          << x << "," << y;
    }
  }
}

TEST(FMultisum, ZeroOutsideDomain) {
  EXPECT_DOUBLE_EQ(f_multisum(5, 4, 1), 0.0);   // x < y + 2
  EXPECT_DOUBLE_EQ(f_multisum(5, 3, 0), 0.0);   // z < 1
  EXPECT_DOUBLE_EQ(f_multisum(2, 3, 2), 0.0);
}

TEST(FMultisum, BruteForceCrossCheckZEqualsThree) {
  // Direct triple summation per the Eq. (2) nesting.
  for (int y = 1; y <= 3; ++y) {
    for (int x = y + 2; x <= y + 6; ++x) {
      double direct = 0.0;
      for (int s3 = y + 2; s3 <= x; ++s3) {
        for (int s2 = y + 1; s2 <= s3; ++s2) {
          for (int s1 = y; s1 <= s2; ++s1) direct += 1.0;
        }
      }
      EXPECT_DOUBLE_EQ(f_multisum(x, y, 3), direct) << x << "," << y;
    }
  }
}

TEST(Pi00, KnownValues) {
  // (1-2a)/(2a^3-4a^2+1) at a = 0.1: 0.8/(0.002-0.04+1) = 0.8316...
  EXPECT_NEAR(pi00_closed_form(0.1), 0.8 / 0.962, 1e-12);
  EXPECT_NEAR(pi00_closed_form(0.0), 1.0, 1e-12);
}

TEST(Pi00, RejectsAlphaOutOfRange) {
  EXPECT_THROW((void)pi00_closed_form(0.5), std::invalid_argument);
  EXPECT_THROW((void)pi00_closed_form(-0.1), std::invalid_argument);
}

TEST(Pii0, GeometricDecay) {
  const double a = 0.3;
  for (int i = 1; i < 8; ++i) {
    EXPECT_NEAR(pii0_closed_form(a, i + 1) / pii0_closed_form(a, i), a, 1e-12);
  }
}

TEST(PiijClosedForm, RejectsInvalidStates) {
  EXPECT_THROW((void)piij_closed_form(0.3, 0.5, 2, 1), std::invalid_argument);
  EXPECT_THROW((void)piij_closed_form(0.3, 0.5, 3, 0), std::invalid_argument);
}

class PiijGridTest : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PiijGridTest, GeneralFormulaMatchesNumericSolution) {
  // The headline validation: Eq. (2) is exact. Compare every (i, j) with
  // i <= 12 against the numeric stationary distribution.
  const auto [alpha, gamma] = GetParam();
  StateSpace space(80);
  TransitionModel model(space, MiningParams{alpha, gamma});
  const auto pi = solve_stationary(model);
  for (int i = 3; i <= 12; ++i) {
    for (int j = 1; j <= i - 2; ++j) {
      const double numeric = pi[space.index_of({i, j})];
      const double closed = piij_closed_form(alpha, gamma, i, j);
      EXPECT_NEAR(numeric, closed, 1e-7 * closed + 1e-10)
          << "(" << i << "," << j << ") a=" << alpha << " g=" << gamma;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaGammaGrid, PiijGridTest,
    ::testing::Combine(::testing::Values(0.1, 0.25, 0.4),
                       ::testing::Values(0.2, 0.5, 0.9)),
    [](const auto& info) {
      return testutil::grid_name(std::get<0>(info.param),
                                 std::get<1>(info.param));
    });

}  // namespace
}  // namespace ethsm::markov
