// Parameter-sweep drivers behind the paper's Markov figures (the revenue and
// threshold experiment kinds of api::run), also called by the examples and
// the integration tests. Each function computes one of the paper's series.

#ifndef ETHSM_ANALYSIS_SWEEP_H
#define ETHSM_ANALYSIS_SWEEP_H

#include <optional>
#include <vector>

#include "analysis/absolute_revenue.h"
#include "analysis/threshold.h"
#include "sim/simulator.h"
#include "support/checkpoint.h"

namespace ethsm::analysis {

/// One point of a revenue-vs-alpha curve (Fig. 8 / Fig. 9 series).
struct RevenuePoint {
  double alpha = 0.0;
  double pool_revenue = 0.0;
  double honest_revenue = 0.0;
  double total_revenue = 0.0;
  double uncle_rate = 0.0;
  /// Simulation cross-check (populated when requested).
  std::optional<double> pool_revenue_sim;
  std::optional<double> honest_revenue_sim;
  std::optional<double> pool_revenue_sim_ci;  ///< 95% CI half-width
  std::optional<double> honest_revenue_sim_ci;
};

struct RevenueCurveOptions {
  double gamma = 0.5;
  rewards::RewardConfig rewards = rewards::RewardConfig::ethereum_flat(0.5);
  Scenario scenario = Scenario::regular_rate_one;
  std::vector<double> alphas;  ///< empty => 0, 0.025, ..., 0.45 (Fig. 8 grid)
  int max_lead = 80;
  /// > 0 adds Monte-Carlo cross-checks with this many runs per point.
  int sim_runs = 0;
  std::uint64_t sim_blocks = 100'000;
  std::uint64_t sim_seed = 0x5e1f15ULL;
};

/// Revenue curves Us(alpha), Uh(alpha), total(alpha) (Fig. 8 / Fig. 9), one
/// per entry of `curves` (a single curve is a one-element list). Every
/// curve's Markov points run in one pool region, then every curve's
/// simulation runs in a second; one job budget covers both passes, Markov
/// first. With `checkpoint` enabled (support/checkpoint.h) the Markov and
/// simulation layers persist under separate fingerprints in its directory,
/// and an interrupted or sharded regeneration resumes and merges to
/// bitwise-identical curves; `outcome` reports progress. On an incomplete
/// (sharded / job-budgeted) sweep, points whose Markov job is missing carry
/// only their alpha, and a point's simulation columns are populated only
/// when *all* of its runs are available; passing `outcome` is mandatory in
/// that case (the driver refuses partial output otherwise).
[[nodiscard]] std::vector<std::vector<RevenuePoint>> revenue_curve(
    const std::vector<RevenueCurveOptions>& curves,
    const support::SweepCheckpoint& checkpoint = {},
    support::SweepOutcome* outcome = nullptr);

/// One point of the threshold-vs-gamma comparison (Fig. 10).
struct ThresholdPoint {
  double gamma = 0.0;
  double bitcoin = 0.0;                      ///< Eyal–Sirer closed form
  std::optional<double> ethereum_scenario1;  ///< nullopt: never profitable
  std::optional<double> ethereum_scenario2;
};

struct ThresholdCurveOptions {
  rewards::RewardConfig rewards = rewards::RewardConfig::ethereum_byzantium();
  std::vector<double> gammas;  ///< empty => 0, 0.05, ..., 1.0 (Fig. 10 grid)
  ThresholdOptions threshold;
};

/// Threshold curves for Bitcoin and both Ethereum scenarios (Fig. 10).
/// Checkpoint semantics as revenue_curve: resumed/sharded regenerations are
/// bitwise-identical to fresh ones; incomplete sweeps require `outcome`.
[[nodiscard]] std::vector<ThresholdPoint> threshold_curve(
    const ThresholdCurveOptions& options,
    const support::SweepCheckpoint& checkpoint = {},
    support::SweepOutcome* outcome = nullptr);

/// Default grids used by the paper's figures.
[[nodiscard]] std::vector<double> fig8_alpha_grid();   ///< 0..0.45 step 0.025
[[nodiscard]] std::vector<double> fig10_gamma_grid();  ///< 0..1 step 0.05

/// Checkpoint-store fingerprints a revenue_curve run would use: the Markov
/// sweep's, plus the simulation sweep's when sim_runs > 0. Exposed so the
/// checkpoint GC (`ethsm checkpoint-stats --prune`) can map on-disk sweeps
/// back to the experiments that own them without running anything.
[[nodiscard]] std::vector<std::uint64_t> revenue_curve_fingerprints(
    const RevenueCurveOptions& options);

/// Checkpoint-store fingerprint of a threshold_curve run.
[[nodiscard]] std::uint64_t threshold_curve_fingerprint(
    const ThresholdCurveOptions& options);

}  // namespace ethsm::analysis

namespace ethsm::support {

template <>
struct CheckpointCodec<analysis::RevenuePoint> {
  static void encode(ByteWriter& w, const analysis::RevenuePoint& point);
  static analysis::RevenuePoint decode(ByteReader& r);
};

template <>
struct CheckpointCodec<analysis::ThresholdPoint> {
  static void encode(ByteWriter& w, const analysis::ThresholdPoint& point);
  static analysis::ThresholdPoint decode(ByteReader& r);
};

}  // namespace ethsm::support

#endif  // ETHSM_ANALYSIS_SWEEP_H
