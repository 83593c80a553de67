// Profitability-threshold analysis (paper Sec. IV-E3, Fig. 10, Sec. VI).
//
// alpha* is the smallest hash-power share at which the selfish strategy beats
// honest mining: Us(alpha) >= alpha. Honest mining earns exactly alpha, so we
// search for the first sign change of Us(alpha) - alpha. Us - alpha is
// negative just above 0 (withheld blocks cost more than uncles repay) and
// positive near 0.5, and crosses once in between for every (gamma, schedule)
// studied in the paper; the search verifies the bracket rather than assuming
// it.

#ifndef ETHSM_ANALYSIS_THRESHOLD_H
#define ETHSM_ANALYSIS_THRESHOLD_H

#include <optional>

#include "analysis/absolute_revenue.h"

namespace ethsm::analysis {

struct ThresholdOptions {
  double alpha_min = 1e-4;
  double alpha_max = 0.4999;
  double tolerance = 1e-6;
  int max_lead = 60;  ///< Markov truncation while searching
};

/// Smallest alpha making selfish mining profitable for the given gamma,
/// reward schedule and difficulty scenario. Returns:
///   * ~0 (alpha_min) when selfish mining is *always* profitable (gamma = 1),
///   * std::nullopt when it is never profitable on [alpha_min, alpha_max].
/// A sign change sitting on alpha_max itself (e.g. near the scenario-2 knee
/// at tight tolerance) returns that endpoint rather than failing; the bracket
/// verdict behind it is support::first_true_report's.
[[nodiscard]] std::optional<double> profitability_threshold(
    double gamma, const rewards::RewardConfig& config, Scenario scenario,
    const ThresholdOptions& options = {});

}  // namespace ethsm::analysis

#endif  // ETHSM_ANALYSIS_THRESHOLD_H
