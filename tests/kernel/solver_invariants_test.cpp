// Structural invariants of the stationary solver (ctest -L kernel): whatever
// path produced the vector -- Gauss-Seidel, power iteration, or the adaptive
// fallback between them -- the result must be a probability distribution in
// global balance, warm starts must not move the fixed point, and the
// truncation boundary's self-loops must keep every row stochastic.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "markov/closed_form.h"
#include "markov/stationary.h"
#include "markov/state_space.h"
#include "markov/transition_model.h"

namespace ethsm::markov {
namespace {

TransitionModel make_model(const StateSpace& space, double alpha,
                           double gamma) {
  MiningParams params;
  params.alpha = alpha;
  params.gamma = gamma;
  return TransitionModel(space, params);
}

double mass_sum(const StationaryDistribution& pi) {
  double sum = 0.0;
  for (double p : pi.values()) sum += p;
  return sum;
}

// Every solver method must return a normalised distribution in global
// balance, including on chains where the truncation boundary holds real mass
// (alpha = 0.45 with max_lead = 8 parks ~alpha^8 on the self-loop states).
TEST(KernelSolverInvariants, SumToOneAndBalanceAcrossMethods) {
  for (int max_lead : {8, 40, 80}) {
    const StateSpace space(max_lead);
    for (double alpha : {0.05, 0.30, 0.45}) {
      for (double gamma : {0.0, 0.5, 1.0}) {
        const TransitionModel model = make_model(space, alpha, gamma);
        for (SolveMethod method :
             {SolveMethod::automatic, SolveMethod::gauss_seidel,
              SolveMethod::power}) {
          StationaryOptions options;
          options.method = method;
          const auto pi = solve_stationary(model, options);
          EXPECT_NEAR(mass_sum(pi), 1.0, 1e-12)
              << "alpha=" << alpha << " gamma=" << gamma
              << " max_lead=" << max_lead << " method="
              << static_cast<int>(method);
          EXPECT_LE(balance_residual(pi, model), 1e-10)
              << "alpha=" << alpha << " gamma=" << gamma
              << " max_lead=" << max_lead;
          for (double p : pi.values()) EXPECT_GE(p, 0.0);
        }
      }
    }
  }
}

// Rows must sum to exactly the unit block-production rate, with the
// truncation boundary's pool-extension folded into a self-loop.
TEST(KernelSolverInvariants, RowsStochasticIncludingTruncationBoundary) {
  const StateSpace space(12);
  const TransitionModel model = make_model(space, 0.45, 0.3);
  const auto& row = model.row_offsets();
  const auto& rate = model.rates();
  for (int s = 0; s < space.size(); ++s) {
    double total = 0.0;
    for (std::uint32_t k = row[static_cast<std::size_t>(s)];
         k < row[static_cast<std::size_t>(s) + 1]; ++k) {
      total += rate[k];
    }
    EXPECT_NEAR(total, 1.0, 1e-15) << "state " << s;
  }
  // Boundary states (12, j) must carry an explicit self-loop of rate alpha.
  bool found_boundary_loop = false;
  for (int s = 0; s < space.size(); ++s) {
    for (std::uint32_t k = row[static_cast<std::size_t>(s)];
         k < row[static_cast<std::size_t>(s) + 1]; ++k) {
      if (model.columns()[k] == s && space.state_at(s).ls == 12) {
        EXPECT_NEAR(rate[k], 0.45, 1e-15);
        found_boundary_loop = true;
      }
    }
  }
  EXPECT_TRUE(found_boundary_loop);
}

// The smallest admissible truncation still solves cleanly under every
// method (4 states; the boundary self-loops carry order-alpha^2 mass).
TEST(KernelSolverInvariants, MinimalTruncationSolves) {
  const StateSpace space(2);
  const TransitionModel model = make_model(space, 0.4, 0.6);
  for (SolveMethod method : {SolveMethod::automatic, SolveMethod::gauss_seidel,
                             SolveMethod::power}) {
    StationaryOptions options;
    options.method = method;
    const auto pi = solve_stationary(model, options);
    EXPECT_NEAR(mass_sum(pi), 1.0, 1e-12);
    EXPECT_LE(pi.residual(), options.tolerance);
  }
}

// alpha = 0 makes the (0,0) self-loop absorb the whole unit rate, which
// degenerates the Gauss-Seidel diagonal; `automatic` must route the chain to
// power iteration and land on the point mass at consensus.
TEST(KernelSolverInvariants, DegenerateDiagonalRoutesToPower) {
  const StateSpace space(8);
  const TransitionModel model = make_model(space, 0.0, 0.5);
  const auto pi = solve_stationary(model);
  EXPECT_EQ(pi.method(), SolveMethod::power);
  EXPECT_NEAR(pi[space.idx_00()], 1.0, 1e-12);
  EXPECT_NEAR(mass_sum(pi), 1.0, 1e-12);
}

// A regular chain under `automatic` must actually take the Gauss-Seidel
// path (the raw-speed claim rests on it), and report its method as such.
TEST(KernelSolverInvariants, AutomaticTakesGaussSeidelOnRegularChains) {
  const StateSpace space(80);
  const TransitionModel model = make_model(space, 0.4, 0.5);
  const auto pi = solve_stationary(model);
  EXPECT_EQ(pi.method(), SolveMethod::gauss_seidel);
  EXPECT_LE(pi.residual(), StationaryOptions{}.tolerance);
}

// Warm-starting from the solved vector must keep the fixed point and
// converge almost immediately; warm-starting a *nearby* chain must beat the
// cold-start sweep count (this is what analysis::RevenueCache relies on).
TEST(KernelSolverInvariants, WarmStartKeepsFixedPointAndCutsIterations) {
  const StateSpace space(80);
  const TransitionModel model = make_model(space, 0.38, 0.5);
  const auto cold = solve_stationary(model);

  StationaryOptions warm;
  warm.initial = &cold.values();
  const auto rewarmed = solve_stationary(model, warm);
  EXPECT_LE(rewarmed.iterations(), 3);
  for (int s = 0; s < space.size(); ++s) {
    EXPECT_NEAR(rewarmed[s], cold[s], 1e-11) << "state " << s;
  }

  const TransitionModel nearby = make_model(space, 0.381, 0.5);
  const auto nearby_cold = solve_stationary(nearby);
  StationaryOptions nearby_warm;
  nearby_warm.initial = &cold.values();
  const auto nearby_warmed = solve_stationary(nearby, nearby_warm);
  EXPECT_LT(nearby_warmed.iterations(), nearby_cold.iterations());
  for (int s = 0; s < space.size(); ++s) {
    EXPECT_NEAR(nearby_warmed[s], nearby_cold[s], 1e-10) << "state " << s;
  }
}

// Squeezing the iteration budget exercises the adaptive fallback plumbing:
// under `automatic` Gauss-Seidel owns half the budget, the power fallback
// the rest, and the combined sweep count stays within the cap.
TEST(KernelSolverInvariants, FallbackRespectsIterationBudget) {
  const StateSpace space(80);
  const TransitionModel model = make_model(space, 0.45, 0.1);
  StationaryOptions tight;
  tight.max_iterations = 10;
  const auto pi = solve_stationary(model, tight);
  EXPECT_EQ(pi.method(), SolveMethod::power);  // GS cannot converge in 5
  EXPECT_LE(pi.iterations(), 10);
  EXPECT_NEAR(mass_sum(pi), 1.0, 1e-12);  // still a distribution
}

// Gauss-Seidel checks convergence after blocks of 1, 2, 4, then 8 sweeps. A
// last block that the budget cuts short spans fewer sweeps, so its change can
// dip under the tolerance before the chain has converged; it must never
// pass. Every Gauss-Seidel budget below the unlimited solve's sweep count
// therefore falls back to power iteration, and a budget equal to it
// reproduces the unlimited solve.
TEST(KernelSolverInvariants, BudgetTruncatedBlockNeverPasses) {
  const StateSpace space(8);
  const TransitionModel model = make_model(space, 0.3, 0.5);
  const auto unlimited = solve_stationary(model);
  ASSERT_EQ(unlimited.method(), SolveMethod::gauss_seidel);
  const int sweeps = unlimited.iterations();
  ASSERT_GT(sweeps, 8);
  for (int budget = sweeps - 8; budget <= sweeps; ++budget) {
    StationaryOptions options;
    options.max_iterations = 2 * budget;  // `automatic` gives Gauss-Seidel half
    const auto pi = solve_stationary(model, options);
    if (budget < sweeps) {
      EXPECT_EQ(pi.method(), SolveMethod::power) << "budget " << budget;
    } else {
      EXPECT_EQ(pi.method(), SolveMethod::gauss_seidel);
      EXPECT_EQ(pi.iterations(), sweeps);
      EXPECT_EQ(pi.values(), unlimited.values());
    }
  }
}

}  // namespace
}  // namespace ethsm::markov
