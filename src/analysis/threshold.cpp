#include "analysis/threshold.h"

#include "support/math_util.h"

namespace ethsm::analysis {

std::optional<double> profitability_threshold(double gamma,
                                              const rewards::RewardConfig& config,
                                              Scenario scenario,
                                              const ThresholdOptions& options) {
  // One cache for the whole search: the bisection re-solves nearly identical
  // chains (adjacent alphas), so each step's stationary solve warm-starts
  // from the previous one and the state space is built once.
  RevenueCache cache;
  auto profitable = [&](double alpha) {
    const markov::MiningParams params{alpha, gamma};
    const RevenueBreakdown r =
        compute_revenue(params, config, options.max_lead, &cache);
    return pool_absolute_revenue(r, scenario) - alpha >= 0.0;
  };
  return support::first_true_report(profitable, options.alpha_min,
                                    options.alpha_max, options.tolerance)
      .value;
}

}  // namespace ethsm::analysis
