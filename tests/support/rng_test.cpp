#include "support/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace ethsm::support {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, IsDeterministicAcrossInstances) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, KnownReferenceStream) {
  // Pin the stream so experiment outputs stay reproducible across releases.
  Xoshiro256 rng(2019);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 4; ++i) first.push_back(rng());
  Xoshiro256 again(2019);
  for (std::uint64_t v : first) EXPECT_EQ(again(), v);
}

TEST(Xoshiro256, Uniform01InHalfOpenRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, Uniform01OpenLowNeverZero) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_GT(rng.uniform01_open_low(), 0.0);
    EXPECT_LE(rng.uniform01_open_low(), 1.0);
  }
}

TEST(Xoshiro256, Uniform01MeanIsHalf) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Xoshiro256, BernoulliMatchesProbability) {
  Xoshiro256 rng(13);
  for (double p : {0.1, 0.45, 0.9}) {
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) hits += rng.bernoulli(p) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
  }
}

TEST(Xoshiro256, ExponentialHasRequestedMean) {
  Xoshiro256 rng(17);
  for (double rate : {0.5, 1.0, 4.0}) {
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.02 / rate);
  }
}

TEST(Xoshiro256, ExponentialIsPositive) {
  Xoshiro256 rng(19);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Xoshiro256, UniformBelowStaysBelowBound) {
  Xoshiro256 rng(23);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 1000ULL, 1000000007ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_below(bound), bound);
  }
}

TEST(Xoshiro256, UniformBelowCoversAllResidues) {
  Xoshiro256 rng(29);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Xoshiro256, UniformBelowIsApproximatelyUniform) {
  Xoshiro256 rng(31);
  std::vector<int> counts(8, 0);
  const int n = 160000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_below(8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, n / 8 * 0.05);
}

TEST(DeriveSeed, IsDeterministicAndAsymmetric) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
}

TEST(DeriveSeed, ChildStreamsDiffer) {
  Xoshiro256 a(derive_seed(5, 0));
  Xoshiro256 b(derive_seed(5, 1));
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_EQ(equal, 0);
}

}  // namespace
}  // namespace ethsm::support
