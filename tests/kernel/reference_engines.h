// Reference implementations of the two Markov inner engines, frozen at the
// pre-kernel versions so the optimised production code has something honest
// to be diffed against:
//   * reference_compute_revenue -- the per-entry switch + Kahan-summation
//     revenue loop that analysis::compute_revenue replaced with the
//     kind-batched kernel. Kept byte-for-byte (modulo namespace) from the
//     seed revision of src/analysis/revenue.cpp.
//   * reference_solve_stationary_power -- a deliberately naive edge-list
//     power iteration, structurally independent of both production solvers
//     (which share the library's CSR/CSC layouts), so a layout-construction
//     bug cannot cancel out of the comparison.
// The differential suite (ctest -L kernel) pins the production engines
// against these across a randomized (alpha, gamma, max_lead, reward-spec)
// grid; see differential_kernel_test.cpp.

#ifndef ETHSM_TESTS_KERNEL_REFERENCE_ENGINES_H
#define ETHSM_TESTS_KERNEL_REFERENCE_ENGINES_H

#include <vector>

#include "analysis/revenue.h"
#include "markov/stationary.h"
#include "markov/transition_model.h"
#include "rewards/reward_schedule.h"

namespace ethsm::testing {

/// The seed revenue integration: walk every CSR entry, evaluate the
/// Appendix-B reward flow per entry, Kahan-accumulate each component.
[[nodiscard]] analysis::RevenueBreakdown reference_compute_revenue(
    const markov::StationaryDistribution& pi,
    const markov::TransitionModel& model, const rewards::RewardConfig& config);

/// Naive power iteration over an edge list of the CSR entries, started from
/// the point mass at (0,0). Returns the normalised stationary vector.
[[nodiscard]] std::vector<double> reference_solve_stationary_power(
    const markov::TransitionModel& model, double tolerance = 1e-14,
    int max_iterations = 200'000);

}  // namespace ethsm::testing

#endif  // ETHSM_TESTS_KERNEL_REFERENCE_ENGINES_H
