// Regression pins for the extension experiments beyond the paper (stubborn
// variants, the delay network, the attack timeline). Deterministic seeds;
// effect sizes are far above Monte-Carlo noise at these run lengths.

#include <gtest/gtest.h>

#include "analysis/attack_timeline.h"
#include "sim/delay_sim.h"
#include "sim/simulator.h"

namespace ethsm {
namespace {

using sim::Scenario;

TEST(StubbornRegression, LeadEqualForkComboBeatsAlgorithmOneAtHighAlpha) {
  // The ext_stubborn preset's headline: with uncle rewards in play, the L+F
  // combination out-earns Algorithm 1 once alpha >= ~0.3 (gamma = 0.5).
  sim::SimConfig config;
  config.alpha = 0.40;
  config.gamma = 0.5;
  config.num_blocks = 100'000;
  config.seed = 0xc0deULL;

  const miner::Strategy lf{.lead = true, .fork = true};
  const auto runs = sim::run_stubborn_many({{config, {}}, {config, lf}}, 4);
  const auto& plain = runs[0];
  const auto& combo = runs[1];
  EXPECT_GT(combo.pool_revenue(Scenario::regular_rate_one).mean(),
            plain.pool_revenue(Scenario::regular_rate_one).mean() + 0.02);
}

TEST(StubbornRegression, TrailStubbornnessHurtsAtLowAlpha) {
  // Chasing from behind with little hash power burns blocks: T2 earns
  // clearly less than Algorithm 1 at alpha = 0.15.
  sim::SimConfig config;
  config.alpha = 0.15;
  config.gamma = 0.5;
  config.num_blocks = 100'000;
  config.seed = 0xc0ffeeULL;

  const miner::Strategy t2{.trail = 2};
  const auto runs = sim::run_stubborn_many({{config, {}}, {config, t2}}, 4);
  const auto& plain = runs[0];
  const auto& trail = runs[1];
  EXPECT_LT(trail.pool_revenue(Scenario::regular_rate_one).mean(),
            plain.pool_revenue(Scenario::regular_rate_one).mean() - 0.02);
}

TEST(DelayRegression, RealisticDelayYieldsRealisticUncleRate) {
  // At delay ~ 0.15 block intervals (2s propagation / ~14s blocks) the
  // all-honest network produces an uncle rate in the band Ethereum actually
  // exhibited (roughly 0.07..0.20 depending on era).
  sim::DelaySimConfig config;
  config.delay = 0.15;
  config.num_blocks = 100'000;
  config.seed = 321;
  const auto r = sim::run_delay_simulation(config);
  EXPECT_GT(r.uncle_rate(), 0.07);
  EXPECT_LT(r.uncle_rate(), 0.20);
}

TEST(TimelineRegression, BleedIsWorstAtMidAlpha) {
  // The phase-1 bleed rate rises then falls with alpha (at gamma = 0.5 the
  // pool stops losing races as alpha -> 0.5): the curve is not monotone.
  const auto cfg = rewards::RewardConfig::ethereum_byzantium();
  const auto low = analysis::compute_attack_timeline(
      {0.06, 0.5}, cfg, Scenario::regular_rate_one);
  const auto mid = analysis::compute_attack_timeline(
      {0.20, 0.5}, cfg, Scenario::regular_rate_one);
  const auto high = analysis::compute_attack_timeline(
      {0.45, 0.5}, cfg, Scenario::regular_rate_one);
  EXPECT_GT(mid.initial_bleed_rate(), low.initial_bleed_rate());
  EXPECT_GT(mid.initial_bleed_rate(), high.initial_bleed_rate());
  EXPECT_LT(high.initial_bleed_rate(), 0.0);  // gamma-0.5 pool profits at .45
}

}  // namespace
}  // namespace ethsm
