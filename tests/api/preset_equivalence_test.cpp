// Preset-vs-driver equivalence: running a paper preset through the
// declarative API (api::run) must produce series bitwise-identical to calling
// the sweep drivers directly with the preset's options. These
// tests freeze that contract, so the spec -> driver-options mapping can never
// silently drift from the recorded experiment artefacts.

#include <gtest/gtest.h>

#include "analysis/attack_timeline.h"
#include "analysis/sweep.h"
#include "analysis/threshold.h"
#include "analysis/uncle_distance.h"
#include "api/presets.h"
#include "api/runner.h"
#include "sim/simulator.h"

namespace ethsm::api {
namespace {

using support::SweepOutcome;

/// Numeric column lookup by header; fails the test when absent.
const Column& column(const ExperimentResult& result, std::size_t table,
                     const std::string& header) {
  EXPECT_LT(table, result.tables.size());
  for (const Column& c : result.tables[table].columns) {
    if (c.header == header) return c;
  }
  ADD_FAILURE() << "missing column '" << header << "'";
  static const Column kEmpty;
  return kEmpty;
}

TEST(PresetEquivalence, Fig8QuickMatchesRevenueCurveDriver) {
  // `ethsm run fig8 --quick`, spelled out against the driver.
  analysis::RevenueCurveOptions opt;
  opt.gamma = 0.5;
  opt.rewards = rewards::RewardConfig::ethereum_flat(0.5);
  opt.scenario = analysis::Scenario::regular_rate_one;
  opt.sim_runs = 3;
  opt.sim_blocks = 20'000;
  const auto curve = analysis::revenue_curve(opt);

  const ExperimentResult result = run(preset_spec("fig8", true));
  ASSERT_TRUE(result.complete());
  const Column& alpha = column(result, 0, "alpha");
  const Column& us = column(result, 0, "Us (analysis)");
  const Column& us_sim = column(result, 0, "Us (sim)");
  const Column& us_ci = column(result, 0, "Us +-95%");
  const Column& uh = column(result, 0, "Uh (analysis)");
  const Column& uh_sim = column(result, 0, "Uh (sim)");
  ASSERT_EQ(alpha.numbers.size(), curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(alpha.numbers[i], curve[i].alpha) << i;
    EXPECT_EQ(us.numbers[i], curve[i].pool_revenue) << i;
    EXPECT_EQ(us_sim.numbers[i], curve[i].pool_revenue_sim) << i;
    EXPECT_EQ(us_ci.numbers[i], curve[i].pool_revenue_sim_ci) << i;
    EXPECT_EQ(uh.numbers[i], curve[i].honest_revenue) << i;
    EXPECT_EQ(uh_sim.numbers[i], curve[i].honest_revenue_sim) << i;
  }
}

TEST(PresetEquivalence, Fig9SeriesMatchRevenueCurveDriver) {
  // The fig9 preset's series: flat 7/8 at horizon 100 plus the cap-6
  // ablation, gamma 0.5, max_lead 120, no simulation.
  analysis::RevenueCurveOptions wide;
  wide.gamma = 0.5;
  wide.rewards = rewards::RewardConfig::ethereum_flat(7.0 / 8.0, 100);
  wide.scenario = analysis::Scenario::regular_rate_one;
  wide.max_lead = 120;
  const auto wide_curve = analysis::revenue_curve(wide);

  analysis::RevenueCurveOptions capped = wide;
  capped.rewards = rewards::RewardConfig::ethereum_flat(7.0 / 8.0);
  const auto capped_curve = analysis::revenue_curve(capped);

  const ExperimentResult result = run(preset_spec("fig9", false));
  ASSERT_TRUE(result.complete());
  const Column& us = column(result, 0, "Us Ku=7/8");
  const Column& tot = column(result, 0, "Tot Ku=7/8");
  const Column& tot_capped = column(result, 0, "Tot Ku=7/8 cap6");
  ASSERT_EQ(us.numbers.size(), wide_curve.size());
  for (std::size_t i = 0; i < wide_curve.size(); ++i) {
    EXPECT_EQ(us.numbers[i], wide_curve[i].pool_revenue) << i;
    EXPECT_EQ(tot.numbers[i], wide_curve[i].total_revenue) << i;
    EXPECT_EQ(tot_capped.numbers[i], capped_curve[i].total_revenue) << i;
  }
  // The paper's headline: total revenue "soars to 135%" at Ku=7/8,
  // alpha=0.45, and only ~127% under Ethereum's distance cap.
  EXPECT_NEAR(*tot.numbers.back(), 1.35, 0.01);
  EXPECT_NEAR(*tot_capped.numbers.back(), 1.27, 0.01);
}

TEST(PresetEquivalence, Fig10QuickMatchesThresholdCurveDriver) {
  // `ethsm run fig10 --quick`, spelled out against the driver.
  analysis::ThresholdCurveOptions opt;
  opt.gammas = {0.0, 0.25, 0.5, 0.75, 1.0};
  opt.threshold.tolerance = 1e-4;
  const auto curve = analysis::threshold_curve(opt);

  const ExperimentResult result = run(preset_spec("fig10", true));
  ASSERT_TRUE(result.complete());
  const Column& gamma = column(result, 0, "gamma");
  const Column& bitcoin = column(result, 0, "Bitcoin (Eyal-Sirer)");
  const Column& s1 = column(result, 0, "Ethereum scenario 1");
  const Column& s2 = column(result, 0, "Ethereum scenario 2");
  ASSERT_EQ(gamma.numbers.size(), curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(gamma.numbers[i], curve[i].gamma) << i;
    EXPECT_EQ(bitcoin.numbers[i], curve[i].bitcoin) << i;
    EXPECT_EQ(s1.numbers[i], curve[i].ethereum_scenario1) << i;
    EXPECT_EQ(s2.numbers[i], curve[i].ethereum_scenario2) << i;
  }
}

TEST(PresetEquivalence, Table2QuickMatchesAnalysisAndRunMany) {
  // `ethsm run table2 --quick`: distribution at max_lead 120 + 3 runs of
  // 50k blocks, seed 0x7ab1e2, for alpha in {0.3, 0.45}.
  const auto d30 =
      analysis::honest_uncle_distance_distribution({0.3, 0.5}, 120);
  sim::SimConfig sc;
  sc.alpha = 0.45;
  sc.gamma = 0.5;
  sc.num_blocks = 50'000;
  sc.seed = 0x7ab1e2;
  const auto s45 = sim::run_many(sc, 3);

  const ExperimentResult result = run(preset_spec("table2", true));
  ASSERT_TRUE(result.complete());
  const Column& a30 = column(result, 0, "alpha=0.30 (analysis)");
  const Column& a45_sim = column(result, 0, "alpha=0.45 (sim)");
  ASSERT_EQ(a30.numbers.size(), 7u);  // d = 1..6 + expectation row
  for (int d = 1; d <= 6; ++d) {
    EXPECT_EQ(a30.numbers[static_cast<std::size_t>(d - 1)],
              d30.fraction[static_cast<std::size_t>(d)])
        << d;
    EXPECT_EQ(a45_sim.numbers[static_cast<std::size_t>(d - 1)],
              s45.uncle_distance_honest.conditional_fraction(
                  static_cast<std::size_t>(d), 1, 6))
        << d;
  }
  EXPECT_EQ(a30.numbers[6], d30.expectation);
}

TEST(PresetEquivalence, ExtStubbornQuickMatchesRunStubbornMany) {
  // The ext_stubborn preset's seed chain: 0x57ab + alpha * 1e4, Byzantium,
  // scenario 1; quick preset grid {0.25, 0.35, 0.45}, 3 runs x 30k blocks.
  const ExperimentResult result = run(preset_spec("ext_stubborn", true));
  ASSERT_TRUE(result.complete());

  const miner::Strategy lf{.lead = true, .fork = true};
  const Column& alpha_col = column(result, 0, "alpha");
  const Column& lf_col = column(result, 0, "L+F");
  const Column& alg1_col = column(result, 0, "Alg.1");
  ASSERT_EQ(alpha_col.numbers.size(), 3u);
  for (std::size_t i = 0; i < alpha_col.numbers.size(); ++i) {
    const double alpha = *alpha_col.numbers[i];
    sim::SimConfig config;
    config.alpha = alpha;
    config.gamma = 0.5;
    config.num_blocks = 30'000;
    config.seed = 0x57abULL + static_cast<std::uint64_t>(alpha * 1e4);
    const auto expected =
        sim::run_stubborn_many({{config, lf}, {config, {}}}, 3);
    EXPECT_EQ(lf_col.numbers[i],
              expected[0].pool_revenue(sim::Scenario::regular_rate_one).mean())
        << alpha;
    EXPECT_EQ(
        alg1_col.numbers[i],
        expected[1].pool_revenue(sim::Scenario::regular_rate_one).mean())
        << alpha;
  }
}

TEST(PresetEquivalence, StubbornSimDefaultRunsClampToOne) {
  // A minimal simulation-only spec without sim_runs (default 0, meaning "no
  // cross-check" for the curve kinds) must run one simulation per point
  // instead of tripping the drivers' runs > 0 precondition.
  ExperimentSpec spec;
  spec.kind = ExperimentKind::stubborn_sim;
  spec.alphas = {0.3};
  spec.sim_blocks = 2'000;
  spec.series = {{"Alg.1", "byzantium", "selfish"}};
  const ExperimentResult result = run(spec);
  ASSERT_TRUE(result.complete());

  sim::SimConfig config;
  config.alpha = 0.3;
  config.gamma = 0.5;
  config.num_blocks = 2'000;
  config.seed = spec.sim_seed + static_cast<std::uint64_t>(0.3 * 1e4);
  const auto expected = sim::run_stubborn_many({{config, {}}}, 1);
  EXPECT_EQ(column(result, 0, "Alg.1").numbers[0],
            expected[0].pool_revenue(sim::Scenario::regular_rate_one).mean());
}

TEST(PresetEquivalence, Sec6QuickMatchesProfitabilityThreshold) {
  const ExperimentResult result = run(preset_spec("sec6_reward_design", true));
  ASSERT_TRUE(result.complete());

  analysis::ThresholdOptions opt;
  opt.tolerance = 1e-3;
  const auto byz = rewards::RewardConfig::ethereum_byzantium();
  const auto expected_s1 = analysis::profitability_threshold(
      0.5, byz, analysis::Scenario::regular_rate_one, opt);
  const auto expected_s2 = analysis::profitability_threshold(
      0.5, byz, analysis::Scenario::regular_and_uncle_rate_one, opt);

  const Column& s1 = column(result, 0, "alpha* scenario 1");
  const Column& s2 = column(result, 0, "alpha* scenario 2");
  ASSERT_GE(s1.numbers.size(), 1u);
  EXPECT_EQ(s1.numbers[0], expected_s1);  // row 0 = Byzantium headline
  EXPECT_EQ(s2.numbers[0], expected_s2);
}

TEST(PresetEquivalence, TimelineMatchesComputeAttackTimeline) {
  const ExperimentResult result = run(preset_spec("ext_timeline", false));
  ASSERT_TRUE(result.complete());
  const auto config = rewards::RewardConfig::ethereum_byzantium();
  const Column& alpha_col = column(result, 0, "alpha");
  const Column& bleed_s1 = column(result, 0, "bleed rate (s1)");
  const Column& break_s2 = column(result, 0, "breakeven blocks (s2)");
  for (std::size_t i = 0; i < alpha_col.numbers.size(); ++i) {
    const double alpha = *alpha_col.numbers[i];
    const auto s1 = analysis::compute_attack_timeline(
        {alpha, 0.5}, config, analysis::Scenario::regular_rate_one, 80);
    const auto s2 = analysis::compute_attack_timeline(
        {alpha, 0.5}, config, analysis::Scenario::regular_and_uncle_rate_one,
        80);
    EXPECT_EQ(bleed_s1.numbers[i], s1.initial_bleed_rate()) << alpha;
    EXPECT_EQ(break_s2.numbers[i], s2.breakeven_time(2016.0)) << alpha;
  }
}

TEST(PresetEquivalence, SweepFingerprintsMatchTheDrivers) {
  // The GC keep-set must key exactly like the drivers' checkpoint stores.
  analysis::ThresholdCurveOptions opt;
  opt.gammas = {0.0, 0.25, 0.5, 0.75, 1.0};
  opt.threshold.tolerance = 1e-4;
  const auto fps = sweep_fingerprints(preset_spec("fig10", true));
  ASSERT_EQ(fps.size(), 1u);
  EXPECT_EQ(fps[0], analysis::threshold_curve_fingerprint(opt));

  sim::SimConfig sc;
  sc.alpha = 0.3;
  sc.gamma = 0.5;
  sc.num_blocks = 50'000;
  sc.seed = 0x7ab1e2;
  const auto table2_fps = sweep_fingerprints(preset_spec("table2", true));
  ASSERT_EQ(table2_fps.size(), 2u);  // one run_many sweep per alpha
  EXPECT_EQ(table2_fps[0], sim::run_many_fingerprint(sc, 3));
}

}  // namespace
}  // namespace ethsm::api
