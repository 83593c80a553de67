#include "support/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace ethsm::support {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sem(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, MatchesHandComputedMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SemAndCi) {
  RunningStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i % 10));
  EXPECT_NEAR(s.sem(), s.stddev() / 10.0, 1e-12);
  EXPECT_NEAR(s.ci_halfwidth(), 1.96 * s.sem(), 1e-12);
  EXPECT_NEAR(s.ci_halfwidth(2.58), 2.58 * s.sem(), 1e-12);
}

TEST(Histogram, RejectsZeroBuckets) {
  EXPECT_THROW(Histogram(0), std::invalid_argument);
}

TEST(Histogram, CountsAndOverflow) {
  Histogram h(4);
  h.add(0);
  h.add(1, 3);
  h.add(3);
  h.add(9);  // overflow
  EXPECT_EQ(h.at(0), 1u);
  EXPECT_EQ(h.at(1), 3u);
  EXPECT_EQ(h.at(2), 0u);
  EXPECT_EQ(h.at(3), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(Histogram, ConditionalFractionAndMean) {
  Histogram h(8);
  h.add(1, 10);
  h.add(2, 30);
  h.add(5, 10);
  h.add(7, 100);  // outside [1,5]
  EXPECT_DOUBLE_EQ(h.conditional_fraction(2, 1, 5), 0.6);
  EXPECT_DOUBLE_EQ(h.conditional_fraction(7, 1, 5), 0.0);
  EXPECT_NEAR(h.conditional_mean(1, 5), (1 * 10 + 2 * 30 + 5 * 10) / 50.0,
              1e-12);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(3), b(3);
  a.add(0, 2);
  b.add(0, 3);
  b.add(2, 1);
  b.add(10, 7);
  a.merge(b);
  EXPECT_EQ(a.at(0), 5u);
  EXPECT_EQ(a.at(2), 1u);
  EXPECT_EQ(a.overflow(), 7u);
}

TEST(Histogram, MergeRejectsSizeMismatch) {
  Histogram a(3), b(4);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(KahanSum, BeatsNaiveSummation) {
  KahanSum k;
  double naive = 0.0;
  // 1 + many tiny terms that individually vanish against 1.0.
  k.add(1.0);
  naive += 1.0;
  const double tiny = 1e-16;
  for (int i = 0; i < 10000; ++i) {
    k.add(tiny);
    naive += tiny;
  }
  const double expected = 1.0 + 10000 * tiny;
  EXPECT_NEAR(k.value(), expected, 1e-18);
  // The naive sum loses every tiny term entirely.
  EXPECT_DOUBLE_EQ(naive, 1.0);
}

}  // namespace
}  // namespace ethsm::support
