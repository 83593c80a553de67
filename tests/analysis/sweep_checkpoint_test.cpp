// Driver-level resume/shard regression tests (the PR's acceptance criteria):
// an interrupted-then-resumed threshold_curve regeneration and a 4-way
// sharded revenue_curve regeneration must both produce bitwise-identical
// aggregates to fresh single-process runs, and corrupted/stale checkpoint
// data must be detected and recomputed rather than trusted. Suites are named
// Checkpoint* so `ctest -L checkpoint` selects them.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <vector>

#include "analysis/sweep.h"
#include "sim/delay_sim.h"
#include "sim/simulator.h"
#include "support/checkpoint.h"
#include "support/temp_dir.h"

namespace ethsm {
namespace {

namespace fs = std::filesystem;
using analysis::RevenueCurveOptions;
using analysis::RevenuePoint;
using analysis::ThresholdCurveOptions;
using analysis::ThresholdPoint;
using support::ShardSpec;
using support::SweepCheckpoint;
using support::SweepOutcome;
using testutil::temp_path;

/// Small-but-real threshold sweep (two bisections per gamma).
ThresholdCurveOptions small_threshold_options() {
  ThresholdCurveOptions opt;
  opt.gammas = {0.0, 0.3, 0.5, 0.8, 1.0};
  opt.threshold.tolerance = 1e-4;
  opt.threshold.max_lead = 40;
  return opt;
}

/// Revenue sweep with Monte-Carlo cross-checks: exercises both checkpoint
/// layers (Markov points and per-run simulations).
RevenueCurveOptions small_revenue_options() {
  RevenueCurveOptions opt;
  opt.alphas = {0.0, 0.15, 0.3, 0.42};
  opt.max_lead = 40;
  opt.sim_runs = 2;
  opt.sim_blocks = 2'000;
  return opt;
}

void expect_identical(const ThresholdPoint& a, const ThresholdPoint& b) {
  EXPECT_EQ(a.gamma, b.gamma);
  EXPECT_EQ(a.bitcoin, b.bitcoin);
  EXPECT_EQ(a.ethereum_scenario1, b.ethereum_scenario1);
  EXPECT_EQ(a.ethereum_scenario2, b.ethereum_scenario2);
}

void expect_identical(const RevenuePoint& a, const RevenuePoint& b) {
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.pool_revenue, b.pool_revenue);
  EXPECT_EQ(a.honest_revenue, b.honest_revenue);
  EXPECT_EQ(a.total_revenue, b.total_revenue);
  EXPECT_EQ(a.uncle_rate, b.uncle_rate);
  EXPECT_EQ(a.pool_revenue_sim, b.pool_revenue_sim);
  EXPECT_EQ(a.honest_revenue_sim, b.honest_revenue_sim);
  EXPECT_EQ(a.pool_revenue_sim_ci, b.pool_revenue_sim_ci);
  EXPECT_EQ(a.honest_revenue_sim_ci, b.honest_revenue_sim_ci);
}

TEST(CheckpointThresholdCurve, InterruptedThenResumedIsBitwiseIdentical) {
  auto opt = small_threshold_options();
  const auto fresh = analysis::threshold_curve(opt);

  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("threshold_resume");
  ckpt.max_new_jobs = 2;  // interrupt mid-grid
  SweepOutcome first;
  (void)analysis::threshold_curve(opt, ckpt, &first);
  EXPECT_FALSE(first.complete());
  EXPECT_EQ(first.computed, 2u);

  ckpt.max_new_jobs = static_cast<std::size_t>(-1);
  SweepOutcome resumed_outcome;
  const auto resumed = analysis::threshold_curve(opt, ckpt, &resumed_outcome);
  ASSERT_TRUE(resumed_outcome.complete());
  EXPECT_EQ(resumed_outcome.loaded, 2u);  // nothing recomputed
  ASSERT_EQ(resumed.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    expect_identical(resumed[i], fresh[i]);
  }
}

TEST(CheckpointRevenueCurve, FourWayShardMergeIsBitwiseIdentical) {
  auto opt = small_revenue_options();
  const auto fresh = analysis::revenue_curve({opt}).front();

  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("revenue_shard4");
  for (std::uint32_t k = 0; k < 4; ++k) {
    ckpt.shard = ShardSpec{k, 4};
    SweepOutcome outcome;
    (void)analysis::revenue_curve({opt}, ckpt, &outcome);
  }
  // Merge run: whole sweep, everything satisfied from the four shard files.
  ckpt.shard = ShardSpec{};
  SweepOutcome merged_outcome;
  const auto merged =
      analysis::revenue_curve({opt}, ckpt, &merged_outcome).front();
  ASSERT_TRUE(merged_outcome.complete());
  EXPECT_EQ(merged_outcome.computed, 0u);
  ASSERT_EQ(merged.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    expect_identical(merged[i], fresh[i]);
  }
}

TEST(CheckpointShardMergeProperty, RandomSplitsEqualSingleProcessExactly) {
  // Property test over random (N, k) splits of a revenue_curve grid
  // (Markov layer only, to keep the grid wide and the test fast).
  RevenueCurveOptions opt;
  opt.alphas = analysis::fig8_alpha_grid();
  opt.max_lead = 30;
  const auto fresh = analysis::revenue_curve({opt}).front();

  std::mt19937_64 rng(0xc0ffee);
  SweepCheckpoint ckpt;
  for (int trial = 0; trial < 3; ++trial) {
    const std::uint32_t n_shards =
        2 + static_cast<std::uint32_t>(rng() % 5);  // N in [2, 6]
    ckpt.directory = temp_path("property_" + std::to_string(trial));
    // Run the shards in a random order to shake out order dependence.
    std::vector<std::uint32_t> order(n_shards);
    for (std::uint32_t k = 0; k < n_shards; ++k) order[k] = k;
    std::shuffle(order.begin(), order.end(), rng);
    for (std::uint32_t k : order) {
      ckpt.shard = ShardSpec{k, n_shards};
      SweepOutcome outcome;
      (void)analysis::revenue_curve({opt}, ckpt, &outcome);
    }
    ckpt.shard = ShardSpec{};
    SweepOutcome merged_outcome;
    const auto merged =
      analysis::revenue_curve({opt}, ckpt, &merged_outcome).front();
    ASSERT_TRUE(merged_outcome.complete()) << "N=" << n_shards;
    EXPECT_EQ(merged_outcome.computed, 0u) << "N=" << n_shards;
    ASSERT_EQ(merged.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      expect_identical(merged[i], fresh[i]);
    }
  }
}

TEST(CheckpointRunMany, ResumedAggregateIsBitwiseIdentical) {
  sim::SimConfig config;
  config.alpha = 0.33;
  config.gamma = 0.5;
  config.num_blocks = 3'000;
  const int runs = 5;
  const auto fresh = sim::run_many({config}, runs).front();

  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("run_many");
  ckpt.max_new_jobs = 2;
  SweepOutcome partial;
  (void)sim::run_many({config}, runs, ckpt, &partial);
  EXPECT_FALSE(partial.complete());

  ckpt.max_new_jobs = static_cast<std::size_t>(-1);
  SweepOutcome outcome;
  const auto resumed = sim::run_many({config}, runs, ckpt, &outcome).front();
  ASSERT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.loaded, 2u);

  const auto s = analysis::Scenario::regular_rate_one;
  EXPECT_EQ(resumed.pool_revenue(s).mean(), fresh.pool_revenue(s).mean());
  EXPECT_EQ(resumed.pool_revenue(s).ci_halfwidth(),
            fresh.pool_revenue(s).ci_halfwidth());
  EXPECT_EQ(resumed.honest_revenue(s).mean(), fresh.honest_revenue(s).mean());
  EXPECT_EQ(resumed.uncle_rate.mean(), fresh.uncle_rate.mean());
  EXPECT_EQ(resumed.pool_share.mean(), fresh.pool_share.mean());
  for (std::size_t d = 0; d < 8; ++d) {
    EXPECT_EQ(resumed.uncle_distance_honest.at(d),
              fresh.uncle_distance_honest.at(d));
    EXPECT_EQ(resumed.uncle_distance_pool.at(d),
              fresh.uncle_distance_pool.at(d));
  }
}

TEST(CheckpointRunMany, RefusesPartialAggregateWithoutOutcome) {
  sim::SimConfig config;
  config.num_blocks = 500;
  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("refuse");
  ckpt.shard = ShardSpec{0, 2};  // half the runs belong to the other shard
  EXPECT_THROW((void)sim::run_many({config}, 4, ckpt), std::invalid_argument);
}

TEST(CheckpointDelay, ResumeRoundTripsExactly) {
  sim::DelaySimConfig config;
  config.num_blocks = 1'000;
  const auto fresh = sim::run_delay_many({config}, 3).front();
  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("delay");
  SweepOutcome first;
  (void)sim::run_delay_many({config}, 3, ckpt, &first);
  SweepOutcome outcome;
  const auto resumed =
      sim::run_delay_many({config}, 3, ckpt, &outcome).front();
  EXPECT_EQ(outcome.loaded, 3u);
  EXPECT_EQ(resumed.uncle_rate.mean(), fresh.uncle_rate.mean());
  EXPECT_EQ(resumed.stale_rate.mean(), fresh.stale_rate.mean());
  ASSERT_EQ(resumed.per_miner_stale_fraction.size(),
            fresh.per_miner_stale_fraction.size());
  for (std::size_t m = 0; m < fresh.per_miner_stale_fraction.size(); ++m) {
    EXPECT_EQ(resumed.per_miner_stale_fraction[m].mean(),
              fresh.per_miner_stale_fraction[m].mean());
  }
}

TEST(CheckpointCorruptionRecovery, CorruptedRecordsAreRecomputedNotTrusted) {
  auto opt = small_threshold_options();
  const auto fresh = analysis::threshold_curve(opt);

  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("corrupt_recompute");
  SweepOutcome first;
  (void)analysis::threshold_curve(opt, ckpt, &first);
  EXPECT_EQ(first.computed, opt.gammas.size());

  // Corrupt the single checkpoint file a few records in: the store must
  // distrust the damaged suffix and the driver recompute it.
  std::string file;
  for (const auto& entry : fs::directory_iterator(ckpt.directory)) {
    file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24 + 16 + 2);  // inside the first record's payload
    const char garbage = 0x5a;
    f.write(&garbage, 1);
  }

  SweepOutcome outcome;
  const auto recovered = analysis::threshold_curve(opt, ckpt, &outcome);
  ASSERT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.loaded, 0u);  // nothing in the damaged file was trusted
  EXPECT_EQ(outcome.computed, opt.gammas.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    expect_identical(recovered[i], fresh[i]);
  }
}

TEST(CheckpointStaleFingerprint, ChangedSweepParametersIgnoreOldRecords) {
  auto opt = small_threshold_options();
  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("stale_params");
  SweepOutcome first;
  (void)analysis::threshold_curve(opt, ckpt, &first);
  EXPECT_EQ(first.computed, opt.gammas.size());

  // Tightening the tolerance changes the fingerprint: stale records must not
  // satisfy the new sweep.
  opt.threshold.tolerance = 1e-5;
  SweepOutcome outcome;
  const auto tightened = analysis::threshold_curve(opt, ckpt, &outcome);
  EXPECT_EQ(outcome.loaded, 0u);
  EXPECT_EQ(outcome.computed, opt.gammas.size());
  // And the tightened sweep matches its own fresh (uncheckpointed) run.
  const auto fresh = analysis::threshold_curve(opt);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    expect_identical(tightened[i], fresh[i]);
  }
}

}  // namespace
}  // namespace ethsm
