#include "markov/stationary.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"
#include "support/metrics.h"
#include "support/stats.h"

namespace ethsm::markov {

StationaryDistribution::StationaryDistribution(const StateSpace& space,
                                               std::vector<double> pi,
                                               int iterations, double residual,
                                               SolveMethod method)
    : pi_(std::move(pi)),
      iterations_(iterations),
      residual_(residual),
      method_(method) {
  ETHSM_EXPECTS(static_cast<int>(pi_.size()) == space.size(),
                "distribution/space size mismatch");
}

namespace {

/// Starting vector: the (renormalised) warm start when one is supplied and
/// sized correctly, otherwise a method-appropriate cold start. Power
/// iteration keeps its historical point mass at (0,0); Gauss-Seidel needs
/// support everywhere -- sweeping the point mass updates state 0 first,
/// before any inflow exists, and annihilates the vector -- so it cold-starts
/// from the uniform distribution. The fixed point does not depend on the
/// choice.
std::vector<double> initial_vector(std::size_t n,
                                   const StationaryOptions& options,
                                   SolveMethod method) {
  std::vector<double> pi;
  if (options.initial != nullptr && options.initial->size() == n) {
    // Warm start (e.g. the previous bisection step's solution). Renormalise
    // defensively; the fixed point does not depend on the starting vector.
    pi = *options.initial;
    double mass = 0.0;
    for (double p : pi) mass += p;
    if (mass > 0.0) {
      for (double& p : pi) p /= mass;
      return pi;
    }
  }
  if (method == SolveMethod::gauss_seidel) {
    pi.assign(n, 1.0 / static_cast<double>(n));
  } else {
    pi.assign(n, 0.0);
    pi[0] = 1.0;  // start at (0,0); any distribution works
  }
  return pi;
}

/// Power iteration pi <- pi * P, in place on `pi`. Consumes sweeps from
/// `iter` up to `max_iterations` total; returns the final L1 change.
double power_iterate(const TransitionModel& model, std::vector<double>& pi,
                     double tolerance, int max_iterations, int& iter) {
  const auto n = pi.size();
  const auto& row = model.row_offsets();
  const auto& col = model.columns();
  const auto& rate = model.rates();

  // The ping-pong buffer survives across calls per thread; after the swap
  // dance it keeps whichever allocation is not returned to the caller.
  thread_local std::vector<double> next;
  next.assign(n, 0.0);

  double diff = 1.0;
  for (; iter < max_iterations && diff > tolerance; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      const double ps = pi[s];
      if (ps == 0.0) continue;
      for (std::uint32_t k = row[s]; k < row[s + 1]; ++k) {
        next[static_cast<std::size_t>(col[k])] += ps * rate[k];
      }
    }
    diff = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      diff += std::fabs(next[s] - pi[s]);
    }
    pi.swap(next);
  }
  return diff;
}

/// One Gauss-Seidel pass over the transposed structure: each state is
/// replaced by its inflow under the *current* vector (already-updated states
/// contribute their new values), with self-loops divided out. Mass is not
/// conserved mid-sweep, so the caller renormalises after each pass.
///
/// The sweep is latency-bound: state c usually draws on state c-1, written
/// one step earlier. The value just stored to pi[c-1] is therefore carried in
/// a register (`prev`) rather than reloaded, the dominant column shape -- two
/// incoming entries, the second from c-1 -- has its own path, and the
/// multiply by inv_diag is skipped where it is exactly 1.0 (no self-loop).
/// Every column still adds its addends in CSC order, one multiply then one
/// add each, starting from 0.0, so the result is bitwise that of the plain
/// CSC loop (docs/ARCHITECTURE.md, "Exactness of the stationary sweep").
void gauss_seidel_sweep(const TransitionModel::Incoming& in,
                        std::vector<double>& pi) {
  const std::size_t n = pi.size();
  double* p = pi.data();
  const auto* offsets = in.col_offsets.data();
  const auto* source = in.source.data();
  const auto* rate = in.rate.data();
  const auto* inv_diag = in.inv_diag.data();
  double prev = 0.0;  // == p[c - 1] once c > 0
  for (std::size_t c = 0; c < n; ++c) {
    const std::uint32_t begin = offsets[c];
    const std::uint32_t end = offsets[c + 1];
    double inflow = 0.0;
    if (end - begin == 2 &&
        static_cast<std::size_t>(source[begin + 1]) + 1 == c) {
      const auto far = static_cast<std::size_t>(source[begin]);
      inflow += p[far] * rate[begin];
      inflow += prev * rate[begin + 1];
    } else {
      for (std::uint32_t e = begin; e < end; ++e) {
        const auto s = static_cast<std::size_t>(source[e]);
        inflow += (s + 1 == c ? prev : p[s]) * rate[e];
      }
    }
    const double d = inv_diag[c];
    prev = d == 1.0 ? inflow : inflow * d;
    p[c] = prev;
  }
}

/// Gauss-Seidel driver. Consumes sweeps from `iter` up to `sweep_limit`;
/// returns the final L1 change. Sets `stalled` when the sweeps produced a
/// non-finite or vanished vector, or exhausted `sweep_limit` short of the
/// tolerance; in both cases `pi` holds the last finite iterate as a warm
/// start for the power-iteration fallback. The per-sweep L1 change is NOT a
/// useful stall signal here: the iteration matrix is non-normal, and in the
/// large-alpha / small-gamma corner the change grows slowly for a couple of
/// hundred sweeps before collapsing -- so the only triggers are numerical
/// failure and the sweep budget.
///
/// Convergence bookkeeping is two passes -- a mass scan, then one loop that
/// normalises, takes the L1 change and refreshes `previous` -- each a serial
/// add chain about as long as a sweep's critical path, so it runs on a
/// doubling schedule -- after sweeps 1, 3, 7, then every 8 -- instead of
/// every sweep. A warm start at the fixed point still exits after a single
/// sweep; a cold start overshoots convergence by at most 7 sweeps, which is
/// noise against the hundreds it needs. Between checkpoints the vector is
/// unnormalised; the fixed point is scale-invariant and a handful of sweeps
/// cannot overflow. A block that `sweep_limit` cuts short spans fewer sweeps
/// than its schedule, so its smaller change is no convergence witness: such
/// a block always stalls.
double gauss_seidel_iterate(const TransitionModel& model,
                            std::vector<double>& pi, double tolerance,
                            int sweep_limit, int& iter, bool& stalled) {
  const auto& in = model.incoming();
  const std::size_t n = pi.size();
  thread_local std::vector<double> previous;
  previous = pi;

  stalled = false;
  double diff = 1.0;
  int interval = 1;
  bool cut_short = false;
  while (iter < sweep_limit && diff > tolerance) {
    const int block = std::min(interval, sweep_limit - iter);
    cut_short = block < interval;
    for (int b = 0; b < block; ++b) gauss_seidel_sweep(in, pi);
    iter += block;
    interval = std::min(interval * 2, 8);

    double mass = 0.0;
    for (double p : pi) mass += p;
    if (!std::isfinite(mass) || mass <= 0.0) {
      // Numerical failure; hand the last finite iterate to the fallback.
      pi = previous;
      stalled = true;
      return diff;
    }
    const double inv_mass = 1.0 / mass;
    double change = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      const double p = pi[s] * inv_mass;
      change += std::fabs(p - previous[s]);
      pi[s] = p;
      previous[s] = p;
    }
    diff = change;
  }
  stalled = cut_short || diff > tolerance;
  return diff;
}

/// Write-only observability tap (see support/metrics.h): solver volume,
/// total sweeps, which inner engine produced the result, and how often the
/// adaptive fallback fired. Compiled out under ETHSM_METRICS=OFF.
struct SolverMetrics {
  support::metrics::Counter& solves;
  support::metrics::Counter& iterations;
  support::metrics::Counter& gauss_seidel;
  support::metrics::Counter& power;
  support::metrics::Counter& fallbacks;

  static SolverMetrics& instance() {
    auto& reg = support::metrics::registry();
    static SolverMetrics m{
        reg.counter("ethsm_solver_solves_total",
                    "Stationary solves completed"),
        reg.counter("ethsm_solver_iterations_total",
                    "Total stationary sweeps across all solves"),
        reg.counter("ethsm_solver_gauss_seidel_total",
                    "Solves produced by the Gauss-Seidel engine"),
        reg.counter("ethsm_solver_power_total",
                    "Solves produced by power iteration"),
        reg.counter("ethsm_solver_fallbacks_total",
                    "Adaptive Gauss-Seidel -> power fallbacks taken"),
    };
    return m;
  }
};

}  // namespace

StationaryDistribution solve_stationary(const TransitionModel& model,
                                        const StationaryOptions& options) {
  const auto n = static_cast<std::size_t>(model.space().size());

  // A state whose self-loop carries (almost) the whole row makes the
  // Gauss-Seidel update 1/(1 - self_rate) degenerate -- alpha = 0 puts the
  // entire unit rate on the (0,0) self-loop -- so such chains (inv_diag
  // zeroed by the model) go straight to power iteration.
  const auto& inv_diag = model.incoming().inv_diag;
  const bool degenerate_diagonal =
      std::find(inv_diag.begin(), inv_diag.end(), 0.0) != inv_diag.end();

  SolveMethod method = options.method;
  if (method == SolveMethod::automatic) {
    method = degenerate_diagonal ? SolveMethod::power : SolveMethod::gauss_seidel;
  }
  std::vector<double> pi = initial_vector(n, options, method);

  int iter = 0;
  double diff = 1.0;
  SolveMethod produced = method;
  if (method == SolveMethod::gauss_seidel) {
    // Under `automatic`, Gauss-Seidel gets half the iteration budget and the
    // fallback the remainder, so a hypothetical non-converging corner still
    // finishes within max_iterations total. Observed Gauss-Seidel sweep
    // counts stay three orders of magnitude below the default budget.
    const int sweep_limit = options.method == SolveMethod::automatic
                                ? options.max_iterations / 2
                                : options.max_iterations;
    bool stalled = false;
    diff = gauss_seidel_iterate(model, pi, options.tolerance, sweep_limit,
                                iter, stalled);
    if (stalled && options.method == SolveMethod::automatic) {
      // Adaptive fallback: finish with power iteration, warm-started from
      // the last finite Gauss-Seidel iterate; the combined sweep count is
      // reported in iterations().
      diff = power_iterate(model, pi, options.tolerance,
                           options.max_iterations, iter);
      produced = SolveMethod::power;
      if constexpr (support::metrics::kEnabled) {
        SolverMetrics::instance().fallbacks.add();
      }
    }
  } else {
    diff = power_iterate(model, pi, options.tolerance, options.max_iterations,
                         iter);
  }

  if constexpr (support::metrics::kEnabled) {
    SolverMetrics& m = SolverMetrics::instance();
    m.solves.add();
    m.iterations.add(static_cast<std::uint64_t>(iter < 0 ? 0 : iter));
    (produced == SolveMethod::gauss_seidel ? m.gauss_seidel : m.power).add();
  }

  // Renormalise: the row sums are exactly 1 by construction, but a long
  // iteration accumulates rounding at the 1e-16 level.
  support::KahanSum total;
  for (double p : pi) total.add(p);
  ETHSM_ENSURES(total.value() > 0.0, "stationary mass vanished");
  for (double& p : pi) p /= total.value();

  return StationaryDistribution(model.space(), std::move(pi), iter, diff,
                                produced);
}

}  // namespace ethsm::markov
