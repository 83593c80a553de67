// Long-run revenue rates from the Markov model (paper Sec. IV-E1).
//
// With the stationary distribution pi and the per-transition expected rewards
// of Appendix B, every long-run reward rate is a weighted sum
//     r = sum_s pi(s) * sum_{t out of s} rate(t) * E[reward | t].
// This reproduces the paper's closed forms Eq. (3)-(5) exactly (tested) and
// fixes the OCR-corrupted Eq. (8)/(9) terms from the case analysis itself.

#ifndef ETHSM_ANALYSIS_REVENUE_H
#define ETHSM_ANALYSIS_REVENUE_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/reward_cases.h"
#include "markov/stationary.h"
#include "rewards/reward_schedule.h"

namespace ethsm::analysis {

/// Long-run reward rates per unit time (block-production rate = 1, Ks = 1).
struct RevenueBreakdown {
  // Paper notation: r_b^s, r_u^s, r_n^s / r_b^h, r_u^h, r_n^h.
  double pool_static = 0.0;
  double pool_uncle = 0.0;
  double pool_nephew = 0.0;
  double honest_static = 0.0;
  double honest_uncle = 0.0;
  double honest_nephew = 0.0;

  /// Rate of regular (main-chain) blocks == pool_static + honest_static
  /// when Ks = 1.
  double regular_rate = 0.0;
  /// Rate of blocks that become *referenced* uncles (what EIP100's difficulty
  /// rule observes).
  double referenced_uncle_rate = 0.0;

  [[nodiscard]] double pool_total() const noexcept {
    return pool_static + pool_uncle + pool_nephew;
  }
  [[nodiscard]] double honest_total() const noexcept {
    return honest_static + honest_uncle + honest_nephew;
  }
  /// r_total of Eq. (10).
  [[nodiscard]] double total() const noexcept {
    return pool_total() + honest_total();
  }
  /// Relative revenue Rs of the pool (share of all rewards).
  [[nodiscard]] double pool_relative_share() const noexcept {
    const double t = total();
    return t == 0.0 ? 0.0 : pool_total() / t;
  }
};

/// The stationary half of the reward kernel: every transition-kind batch
/// reduced to its weight sum_{t of that kind} pi(source(t)) * rate(t). It
/// depends on (pi, model) only -- not on the reward schedule or the
/// difficulty scenario -- so one solved chain prices any number of schedules.
/// The two distance-dependent kinds (Cases 7 and 10) keep one weight per
/// locked-in uncle distance d in [0, max_lead]; their `kind` slots stay 0.
struct KernelWeights {
  std::array<double, markov::kNumTransitionKinds> kind{};
  std::vector<double> first_fork_by_distance;
  std::vector<double> reroot_by_distance;
};

/// Reduces pi over the model's kind batches (the weighted sums of Sec. IV-E1).
[[nodiscard]] KernelWeights kernel_weights(
    const markov::StationaryDistribution& pi,
    const markov::TransitionModel& model);

/// Prices kernel weights under a reward schedule: one Appendix-B reward flow
/// per kind (and per distance inside the reference horizon), scaled by its
/// weight and summed in kind order.
[[nodiscard]] RevenueBreakdown price(const KernelWeights& weights,
                                     const markov::MiningParams& params,
                                     const rewards::RewardConfig& config);

/// Integrates the Appendix-B reward flows over the stationary distribution:
/// price(kernel_weights(pi, model), model.params(), config).
[[nodiscard]] RevenueBreakdown compute_revenue(
    const markov::StationaryDistribution& pi,
    const markov::TransitionModel& model, const rewards::RewardConfig& config);

/// Warm-start state for sequences of nearby models (the profitability
/// bisection evaluates compute_revenue at a dozen alphas that differ by
/// <= 1e-6 near convergence). `path` holds the bit patterns of every
/// (alpha, gamma) evaluated since the chain's cold solve, the last one
/// included; `last_pi` is the stationary solution at the end of that path,
/// which warm-starts the next solve, so Gauss-Seidel needs a handful of
/// sweeps instead of starting over from the uniform vector. The path is part
/// of the solve memo's key (analysis/solve_memo.h): a warm-started solve
/// depends on every solve before it. Not thread-safe: use one cache per
/// thread/search.
struct RevenueCache {
  int max_lead = -1;
  std::unique_ptr<markov::StateSpace> space;  ///< built on the first solve
  std::vector<std::uint64_t> path;
  std::shared_ptr<const std::vector<double>> last_pi;
};

/// Convenience: the revenue of the chain at (alpha, gamma). `max_lead` is the
/// truncation (the paper's footnote 3 uses 200). For gamma >= 0.25 the
/// stationary tail is negligible far below 80; small gamma with alpha near
/// 1/2 needs far more (at alpha = 0.45, gamma = 0 a depth of 200 still
/// misses 2.3e-4 of the pool's static rate). `cache`, when given, carries the
/// warm start from one evaluation to the next. Stationary solves go through
/// the process-wide solve memo, so a chain already solved with the same
/// inputs is priced without solving it again; the result is bitwise the same
/// either way.
[[nodiscard]] RevenueBreakdown compute_revenue(
    const markov::MiningParams& params, const rewards::RewardConfig& config,
    int max_lead = 80, RevenueCache* cache = nullptr);

}  // namespace ethsm::analysis

#endif  // ETHSM_ANALYSIS_REVENUE_H
