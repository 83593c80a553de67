// Stationary distribution of the selfish-mining chain (paper Sec. IV-C).
//
// Because the total outgoing rate of every state equals the total block
// production rate (= 1 after the Sec. IV-B rescaling), the CTMC's stationary
// vector coincides with that of the discrete-time jump chain whose transition
// probabilities equal the rates. Two solvers share the fixed point:
//   * Gauss-Seidel (the default): in-place sweeps over the transposed (CSC)
//     transition structure, pi[s] = inflow(s) / (1 - self_rate(s)), so mass
//     propagates up the whole lead ladder within a single sweep (the state
//     enumeration orders (i, j) by increasing lead, which is also the
//     direction the pool-extension transitions point). This cuts iteration
//     counts hardest exactly where power iteration is slowest -- the
//     large-alpha / small-gamma corner with truncations up to 600.
//   * Power iteration: pi <- pi * P sweeps; kept both as the adaptive
//     fallback (taken on a degenerate diagonal, e.g. alpha = 0, on numerical
//     failure, or when Gauss-Seidel exhausts half the iteration budget) and
//     as the reference the differential suite (ctest -L kernel) pins
//     Gauss-Seidel against.
// Both support warm starts; the chain regenerates at (0,0) frequently, so
// convergence is fast for all alpha < 0.5 either way.

#ifndef ETHSM_MARKOV_STATIONARY_H
#define ETHSM_MARKOV_STATIONARY_H

#include <vector>

#include "markov/transition_model.h"

namespace ethsm::markov {

/// Which inner solver produced (or should produce) a stationary vector.
enum class SolveMethod {
  automatic,     ///< Gauss-Seidel with adaptive fallback to power iteration
  gauss_seidel,  ///< Gauss-Seidel sweeps only (no fallback)
  power,         ///< power iteration only (the pre-Gauss-Seidel behaviour)
};

struct StationaryOptions {
  double tolerance = 1e-14;  ///< L1 change per sweep at which to stop
  int max_iterations = 200'000;
  /// Optional warm start: when it matches the space size, the solver begins
  /// from this (renormalised) vector instead of the point mass at (0,0). The
  /// fixed point is unchanged; only the iteration count drops. Used by the
  /// profitability-threshold bisection, whose successive alphas produce
  /// nearly identical chains (analysis/threshold.cpp, via RevenueCache).
  const std::vector<double>* initial = nullptr;
  /// Solver selection; `automatic` runs Gauss-Seidel on half the iteration
  /// budget and falls back to warm-started power iteration if the sweeps
  /// fail numerically or exhaust that budget; chains with a degenerate
  /// diagonal (a near-unit self-loop, e.g. alpha = 0) go straight to power.
  /// The explicit values exist for the differential tests and the perf
  /// microbenchmarks.
  SolveMethod method = SolveMethod::automatic;
};

/// The solved distribution plus solver diagnostics. Self-contained: it keeps
/// no reference to the StateSpace, so it may outlive the space it was solved
/// on.
class StationaryDistribution {
 public:
  StationaryDistribution(const StateSpace& space, std::vector<double> pi,
                         int iterations, double residual,
                         SolveMethod method = SolveMethod::power);

  /// pi(state) by dense index.
  [[nodiscard]] double operator[](int index) const {
    return pi_[static_cast<std::size_t>(index)];
  }

  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return pi_;
  }
  [[nodiscard]] int iterations() const noexcept { return iterations_; }
  /// Final L1 change per sweep (convergence witness).
  [[nodiscard]] double residual() const noexcept { return residual_; }
  /// Which solver produced the vector. `automatic` never appears here: a
  /// solve that fell back reports `power` with the total sweep count.
  [[nodiscard]] SolveMethod method() const noexcept { return method_; }

 private:
  std::vector<double> pi_;
  int iterations_;
  double residual_;
  SolveMethod method_;
};

/// Solves for the stationary distribution of `model`.
[[nodiscard]] StationaryDistribution solve_stationary(
    const TransitionModel& model, const StationaryOptions& options = {});

}  // namespace ethsm::markov

#endif  // ETHSM_MARKOV_STATIONARY_H
