// Differential lockdown of the optimised Markov inner engines (ctest -L
// kernel): the kind-batched revenue kernel and the Gauss-Seidel stationary
// solver are pinned against the frozen reference implementations in
// reference_engines.{h,cpp} across a randomized (alpha, gamma, max_lead,
// reward-spec) grid -- over a thousand cells -- plus the paper's closed-form
// anchors (Eq. (3)-(5)) and the Bitcoin degenerate case, whose relative
// revenue is the Eyal-Sirer / Grunspan-Perez-Marco expression.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/revenue.h"
#include "analysis/revenue_closed_form.h"
#include "markov/stationary.h"
#include "markov/state_space.h"
#include "markov/transition_model.h"
#include "reference_engines.h"
#include "rewards/reward_schedule.h"
#include "support/rng.h"

namespace ethsm {
namespace {

using analysis::RevenueBreakdown;
using markov::MiningParams;
using markov::SolveMethod;
using markov::StateSpace;
using markov::StationaryDistribution;
using markov::StationaryOptions;
using markov::TransitionModel;
using rewards::RewardConfig;
using support::Xoshiro256;

/// Largest component mismatch between two breakdowns, relative to the unit
/// total reward rate (all components are O(1) fractions of Ks = 1 per block,
/// so normalising by max(1, |reference|) is the natural relative error and
/// stays meaningful when a component is exactly zero, e.g. uncles under the
/// Bitcoin schedule).
double max_relative_mismatch(const RevenueBreakdown& got,
                             const RevenueBreakdown& want) {
  auto rel = [](double a, double b) {
    return std::fabs(a - b) / std::max(1.0, std::fabs(b));
  };
  double worst = rel(got.pool_static, want.pool_static);
  worst = std::max(worst, rel(got.pool_uncle, want.pool_uncle));
  worst = std::max(worst, rel(got.pool_nephew, want.pool_nephew));
  worst = std::max(worst, rel(got.honest_static, want.honest_static));
  worst = std::max(worst, rel(got.honest_uncle, want.honest_uncle));
  worst = std::max(worst, rel(got.honest_nephew, want.honest_nephew));
  worst = std::max(worst, rel(got.regular_rate, want.regular_rate));
  worst = std::max(worst, rel(got.referenced_uncle_rate,
                              want.referenced_uncle_rate));
  return worst;
}

/// Random reward specification covering every schedule family the repo
/// models: Byzantium, Bitcoin (Ku = Kn = 0), flat Ku with a random horizon,
/// and an arbitrary random table. Nephew value and horizon are randomized
/// independently so reference_horizon() exercises both the Ku- and the
/// Kn-dominated branch.
RewardConfig random_reward_config(Xoshiro256& rng) {
  RewardConfig config;
  const double pick = rng.uniform01();
  if (pick < 0.25) {
    config = RewardConfig::ethereum_byzantium();
  } else if (pick < 0.5) {
    config = RewardConfig::bitcoin();
  } else if (pick < 0.75) {
    const double value = rng.uniform01();
    const int horizon = 1 + static_cast<int>(rng.uniform01() * 9.0);
    config = RewardConfig::ethereum_flat(value, horizon);
  } else {
    const int len = 1 + static_cast<int>(rng.uniform01() * 7.0);
    std::vector<double> values(static_cast<std::size_t>(len));
    for (double& v : values) v = rng.uniform01();
    config.uncle = std::make_shared<rewards::TableUncleSchedule>(
        std::move(values), "fuzz table");
  }
  if (rng.uniform01() < 0.5) {
    const double kn = 0.25 * rng.uniform01();
    const int horizon = 1 + static_cast<int>(rng.uniform01() * 7.0);
    config.nephew = rewards::NephewRewardSchedule(kn, horizon);
  }
  return config;
}

/// Random strictly-positive-mass vector with a sprinkling of exact zeros
/// (the reference's zero-mass fast path and the kernel's zero-weight skips
/// must agree on those).
std::vector<double> random_mass_vector(Xoshiro256& rng, int n) {
  std::vector<double> pi(static_cast<std::size_t>(n));
  double mass = 0.0;
  for (double& p : pi) {
    p = rng.uniform01() < 0.1 ? 0.0 : rng.uniform01();
    mass += p;
  }
  if (mass == 0.0) {
    pi[0] = 1.0;
    mass = 1.0;
  }
  for (double& p : pi) p /= mass;
  return pi;
}

// Tentpole acceptance: >= 1000 fuzzed (alpha, gamma, max_lead, reward-spec)
// cells, every RevenueBreakdown component within 1e-12 relative of the
// reference. Synthetic stationary vectors decouple the kernel diff from
// solver behaviour and let the grid cover a thousand cells in seconds.
TEST(KernelDifferential, FuzzedRevenueMatchesReferenceOnRandomVectors) {
  Xoshiro256 rng(0xd1ff'5eed'01ULL);
  int cells = 0;
  double worst = 0.0;
  for (int cell = 0; cell < 1000; ++cell) {
    const double alpha = 0.01 + 0.48 * rng.uniform01();
    double gamma = rng.uniform01();
    if (cell % 53 == 0) gamma = 0.0;  // pin the boundary rates exactly
    if (cell % 97 == 0) gamma = 1.0;
    const int max_lead = 4 + static_cast<int>(rng.uniform01() * 57.0);

    const StateSpace space(max_lead);
    MiningParams params;
    params.alpha = alpha;
    params.gamma = gamma;
    const TransitionModel model(space, params);
    const RewardConfig config = random_reward_config(rng);
    const StationaryDistribution pi(space, random_mass_vector(rng, space.size()),
                                    0, 0.0);

    const RevenueBreakdown got = analysis::compute_revenue(pi, model, config);
    const RevenueBreakdown want =
        testing::reference_compute_revenue(pi, model, config);
    const double mismatch = max_relative_mismatch(got, want);
    worst = std::max(worst, mismatch);
    ASSERT_LE(mismatch, 1e-12)
        << "alpha=" << alpha << " gamma=" << gamma << " max_lead=" << max_lead
        << " rewards=" << config.uncle->name();
    ++cells;
  }
  ASSERT_GE(cells, 1000);
  RecordProperty("worst_relative_mismatch", std::to_string(worst));
}

// End-to-end cells: both engines together. Each cell solves the chain with
// the production (Gauss-Seidel + fallback) solver, then diffs the kernel
// against the reference revenue loop on that solved vector AND the solved
// vector against the structurally independent edge-list power reference.
TEST(KernelDifferential, SolvedCellsMatchReferenceEngines) {
  Xoshiro256 rng(0x50f7'ed5e'11ULL);
  for (int cell = 0; cell < 60; ++cell) {
    const double alpha = 0.05 + 0.40 * rng.uniform01();
    const double gamma = rng.uniform01();
    const int max_lead = 8 + static_cast<int>(rng.uniform01() * 92.0);

    const StateSpace space(max_lead);
    MiningParams params;
    params.alpha = alpha;
    params.gamma = gamma;
    const TransitionModel model(space, params);
    const auto pi = markov::solve_stationary(model);

    // Solver differential: production vs naive edge-list power iteration.
    const std::vector<double> ref_pi =
        testing::reference_solve_stationary_power(model);
    double worst_pi = 0.0;
    for (std::size_t s = 0; s < ref_pi.size(); ++s) {
      worst_pi = std::max(worst_pi, std::fabs(pi.values()[s] - ref_pi[s]));
    }
    ASSERT_LE(worst_pi, 1e-10) << "alpha=" << alpha << " gamma=" << gamma
                               << " max_lead=" << max_lead
                               << " method=" << static_cast<int>(pi.method());

    // Kernel differential on the solved vector.
    const RewardConfig config = random_reward_config(rng);
    const RevenueBreakdown got = analysis::compute_revenue(pi, model, config);
    const RevenueBreakdown want =
        testing::reference_compute_revenue(pi, model, config);
    ASSERT_LE(max_relative_mismatch(got, want), 1e-12)
        << "alpha=" << alpha << " gamma=" << gamma << " max_lead=" << max_lead;
  }
}

// The two production solver methods must land on the same fixed point when
// forced explicitly (automatic's fallback correctness depends on it).
TEST(KernelDifferential, GaussSeidelAndPowerAgreePointwise) {
  Xoshiro256 rng(0x6a55'5e1d'e1ULL);
  for (int cell = 0; cell < 20; ++cell) {
    const double alpha = 0.05 + 0.40 * rng.uniform01();
    const double gamma = rng.uniform01();
    const int max_lead = 8 + static_cast<int>(rng.uniform01() * 72.0);
    const StateSpace space(max_lead);
    MiningParams params;
    params.alpha = alpha;
    params.gamma = gamma;
    const TransitionModel model(space, params);

    StationaryOptions gs;
    gs.method = SolveMethod::gauss_seidel;
    StationaryOptions power;
    power.method = SolveMethod::power;
    const auto pi_gs = markov::solve_stationary(model, gs);
    const auto pi_power = markov::solve_stationary(model, power);
    ASSERT_EQ(pi_gs.method(), SolveMethod::gauss_seidel);
    ASSERT_EQ(pi_power.method(), SolveMethod::power);
    for (int s = 0; s < space.size(); ++s) {
      ASSERT_NEAR(pi_gs[s], pi_power[s], 1e-10)
          << "state " << s << " alpha=" << alpha << " gamma=" << gamma;
    }
  }
}

// The kernel must be deterministic: the kind-batched permutation is a stable
// counting sort, so two evaluations of the same cell are bitwise identical.
TEST(KernelDifferential, KernelIsDeterministic) {
  const StateSpace space(40);
  MiningParams params;
  params.alpha = 0.33;
  params.gamma = 0.41;
  const TransitionModel model(space, params);
  const auto pi = markov::solve_stationary(model);
  const RewardConfig config = RewardConfig::ethereum_byzantium();
  const RevenueBreakdown a = analysis::compute_revenue(pi, model, config);
  const RevenueBreakdown b = analysis::compute_revenue(pi, model, config);
  EXPECT_EQ(a.pool_static, b.pool_static);
  EXPECT_EQ(a.pool_uncle, b.pool_uncle);
  EXPECT_EQ(a.pool_nephew, b.pool_nephew);
  EXPECT_EQ(a.honest_static, b.honest_static);
  EXPECT_EQ(a.honest_uncle, b.honest_uncle);
  EXPECT_EQ(a.honest_nephew, b.honest_nephew);
  EXPECT_EQ(a.regular_rate, b.regular_rate);
  EXPECT_EQ(a.referenced_uncle_rate, b.referenced_uncle_rate);
}

// Closed-form anchors, paper Eq. (3)-(5): the kernel's Byzantium rates over
// the solved chain must reproduce the paper's exact expressions. max_lead is
// sized so truncation error sits below the anchor tolerance.
TEST(KernelDifferential, ClosedFormAnchorsEq3to5) {
  const RewardConfig config = RewardConfig::ethereum_byzantium();
  const double ku1 = config.uncle_reward(1);  // 7/8 under Byzantium
  for (double alpha : {0.10, 0.20, 0.30, 0.35}) {
    for (double gamma : {0.0, 0.3, 0.7, 1.0}) {
      MiningParams params;
      params.alpha = alpha;
      params.gamma = gamma;
      const StateSpace space(200);
      const TransitionModel model(space, params);
      const auto pi = markov::solve_stationary(model);
      const RevenueBreakdown r = analysis::compute_revenue(pi, model, config);
      EXPECT_NEAR(r.pool_static,
                  analysis::pool_static_rate_closed_form(alpha, gamma), 1e-11)
          << alpha << "," << gamma;
      EXPECT_NEAR(r.honest_static,
                  analysis::honest_static_rate_closed_form(alpha, gamma), 1e-11)
          << alpha << "," << gamma;
      EXPECT_NEAR(r.pool_uncle,
                  analysis::pool_uncle_rate_closed_form(alpha, gamma, ku1),
                  1e-11)
          << alpha << "," << gamma;
    }
  }
}

// Bitcoin anchor: with Ku = Kn = 0 only static rewards flow, so the pool's
// relative revenue collapses to the Eyal-Sirer / Grunspan-Perez-Marco
// expression, here assembled from the Eq. (3)/(4) closed forms.
TEST(KernelDifferential, BitcoinRelativeRevenueAnchor) {
  const RewardConfig config = RewardConfig::bitcoin();
  for (double alpha : {0.15, 0.25, 0.35}) {
    for (double gamma : {0.0, 0.5, 1.0}) {
      MiningParams params;
      params.alpha = alpha;
      params.gamma = gamma;
      const StateSpace space(200);
      const TransitionModel model(space, params);
      const auto pi = markov::solve_stationary(model);
      const RevenueBreakdown r = analysis::compute_revenue(pi, model, config);
      EXPECT_EQ(r.pool_uncle, 0.0);
      EXPECT_EQ(r.pool_nephew, 0.0);
      EXPECT_EQ(r.honest_uncle, 0.0);
      EXPECT_EQ(r.honest_nephew, 0.0);
      const double ps = analysis::pool_static_rate_closed_form(alpha, gamma);
      const double hs = analysis::honest_static_rate_closed_form(alpha, gamma);
      EXPECT_NEAR(r.pool_relative_share(), ps / (ps + hs), 1e-11)
          << alpha << "," << gamma;
    }
  }
}

}  // namespace
}  // namespace ethsm
