#include "support/math_util.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ethsm::support {
namespace {

TEST(Ipow, MatchesStdPowForIntegers) {
  for (double b : {0.0, 0.5, 1.0, 2.0, -3.0}) {
    for (int e : {0, 1, 2, 7, 15}) {
      EXPECT_NEAR(ipow(b, e), std::pow(b, e), 1e-9 * std::fabs(std::pow(b, e)) + 1e-12)
          << "b=" << b << " e=" << e;
    }
  }
}

TEST(Ipow, ZeroExponentIsOne) {
  EXPECT_DOUBLE_EQ(ipow(0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ipow(123.0, 0), 1.0);
}

TEST(FirstTrueReport, ClassifiesInteriorCrossing) {
  const auto r =
      first_true_report([](double v) { return v >= 0.37; }, 0.0, 1.0, 1e-9);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_NEAR(*r.value, 0.37, 1e-8);
  EXPECT_EQ(r.crossing, CrossingLocation::interior);
}

TEST(FirstTrueReport, ClassifiesEndpoints) {
  const auto at_lo = first_true_report([](double) { return true; }, 0.25, 1.0);
  EXPECT_EQ(at_lo.crossing, CrossingLocation::at_lo);
  EXPECT_DOUBLE_EQ(at_lo.value.value(), 0.25);

  const auto none = first_true_report([](double) { return false; }, 0.0, 1.0);
  EXPECT_EQ(none.crossing, CrossingLocation::none);
  EXPECT_FALSE(none.value.has_value());
}

TEST(FirstTrueReport, SignChangeOnHiIsReportedAsAtHi) {
  // The predicate flips exactly at the upper bracket endpoint: every interior
  // probe is false, so the bisection collapses onto hi. That must come back
  // as at_hi -- the caller cannot distinguish "threshold == hi" from
  // "threshold just beyond hi" and should not treat it as interior.
  const auto r = first_true_report([](double v) { return v >= 1.0; }, 0.0, 1.0,
                                   1e-9);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(r.crossing, CrossingLocation::at_hi);
  EXPECT_NEAR(*r.value, 1.0, 1e-8);
}

TEST(FirstTrueReport, CrossingWithinToleranceOfHiIsAtHi) {
  // The crossing is strictly interior but less than one tolerance below hi.
  // Bisection cannot separate it from the endpoint at this resolution, so the
  // verdict must be at_hi: "tighten the tolerance or widen the bracket", not
  // a confident interior threshold.
  const auto r = first_true_report([](double v) { return v >= 0.9999; }, 0.0,
                                   1.0, 1e-3);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(r.crossing, CrossingLocation::at_hi);

  // The same crossing with a tolerance fine enough to separate it from hi
  // must flip the verdict to interior.
  const auto fine = first_true_report([](double v) { return v >= 0.9999; },
                                      0.0, 1.0, 1e-6);
  ASSERT_TRUE(fine.value.has_value());
  EXPECT_EQ(fine.crossing, CrossingLocation::interior);
  EXPECT_NEAR(*fine.value, 0.9999, 1e-5);
}

TEST(FirstTrueReport, DegenerateBracketReportsEndpointVerdicts) {
  // lo == hi collapses the search to a single point: a true predicate is
  // at_lo (crossing at or below the bracket), a false one is none.
  const auto point_true =
      first_true_report([](double) { return true; }, 0.5, 0.5);
  EXPECT_EQ(point_true.crossing, CrossingLocation::at_lo);
  EXPECT_DOUBLE_EQ(point_true.value.value(), 0.5);

  const auto point_false =
      first_true_report([](double) { return false; }, 0.5, 0.5);
  EXPECT_EQ(point_false.crossing, CrossingLocation::none);
  EXPECT_FALSE(point_false.value.has_value());
}

TEST(FirstTrueReport, ToleranceWiderThanBracketStillTerminates) {
  // The loop body never runs: pred(lo) false, pred(hi) true, and the bracket
  // is already narrower than the tolerance. The crossing cannot be localised
  // away from hi, so the verdict is at_hi with value == hi.
  const auto r = first_true_report([](double v) { return v >= 0.25; }, 0.2,
                                   0.3, 1.0);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_DOUBLE_EQ(*r.value, 0.3);
  EXPECT_EQ(r.crossing, CrossingLocation::at_hi);
}

TEST(FirstTrueReport, AtLoWinsWhenPredicateTrueEverywhere) {
  // at_lo takes precedence over at_hi: if pred(lo) already holds, the
  // bracket said nothing about where the crossing is except "at or below
  // lo", regardless of how narrow the bracket is.
  const auto r = first_true_report([](double) { return true; }, 0.0, 1e-12);
  EXPECT_EQ(r.crossing, CrossingLocation::at_lo);
  EXPECT_DOUBLE_EQ(r.value.value(), 0.0);
}

}  // namespace
}  // namespace ethsm::support
