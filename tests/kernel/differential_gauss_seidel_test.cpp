// Differential lockdown of the Gauss-Seidel sweep (ctest -L kernel): the
// production sweep carries the previous state's value in a register, has a
// fast path for two-entry columns fed by c-1 and skips multiplies by an
// exactly-unit diagonal, yet must reproduce the frozen plain-CSC solve
// (reference_solve_stationary_gauss_seidel, reference_engines.h) bit for bit:
// every pi entry and the sweep count. The grid crosses truncations from the
// smallest chains to the paper's lead of 200 with alphas up to the 1/2 edge
// and gamma at 0, 1/2 and 1 -- at 0 and 1 zero-rate entries are dropped, so
// many columns lose the two-entry shape and take the general path. Each
// model is solved cold, from random warm starts with exact zeros, from a
// neighbouring alpha's solution (the bisection pattern) and with a budget
// too small for Gauss-Seidel, which forces the power-iteration fallback.
// Near alpha = 1/2 a deep chain needs tens of thousands of sweeps; every
// solve here is capped at kSweepBudget sweeps, which the cheap cells never
// reach and which sends the slow ones through the fallback as well -- the
// sweep is the same code on sweep 500 as on sweep 50,000.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "markov/stationary.h"
#include "markov/state_space.h"
#include "markov/transition_model.h"
#include "reference_engines.h"
#include "support/rng.h"

namespace ethsm {
namespace {

using markov::MiningParams;
using markov::SolveMethod;
using markov::StateSpace;
using markov::StationaryDistribution;
using markov::StationaryOptions;
using markov::TransitionModel;

constexpr int kMaxLeads[] = {2, 3, 8, 60, 80, 200};
constexpr double kAlphas[] = {1e-3, 0.1, 0.3, 0.45, 0.4999};
constexpr double kGammas[] = {0.0, 0.5, 1.0};
constexpr int kSweepBudget = 500;

/// "" when production and reference agree in every bit of every entry, in
/// the sweep count and in the engine that produced the vector; otherwise the
/// first disagreement.
std::string compare_solves(const TransitionModel& model,
                           const StationaryOptions& options) {
  const StationaryDistribution got = markov::solve_stationary(model, options);
  const StationaryDistribution want =
      testing::reference_solve_stationary_gauss_seidel(model, options);
  std::ostringstream out;
  if (got.iterations() != want.iterations()) {
    out << "iterations " << got.iterations() << " != " << want.iterations();
  } else if (got.method() != want.method()) {
    out << "method " << static_cast<int>(got.method())
        << " != " << static_cast<int>(want.method());
  } else if (std::bit_cast<std::uint64_t>(got.residual()) !=
             std::bit_cast<std::uint64_t>(want.residual())) {
    out << "residual " << got.residual() << " != " << want.residual();
  } else {
    const auto& a = got.values();
    const auto& b = want.values();
    for (std::size_t s = 0; s < a.size(); ++s) {
      if (std::bit_cast<std::uint64_t>(a[s]) !=
          std::bit_cast<std::uint64_t>(b[s])) {
        out.precision(17);
        out << "pi[" << s << "] " << a[s] << " != " << b[s];
        break;
      }
    }
  }
  return out.str();
}

/// Random warm start with about one entry in five exactly zero; left
/// unnormalised so the solver's renormalisation is exercised too.
std::vector<double> random_warm_start(support::Xoshiro256& rng, int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& p : v) p = rng.uniform01() < 0.2 ? 0.0 : rng.uniform01();
  v[0] = 0.5;  // keep the mass positive
  return v;
}

std::string cell_name(int max_lead, double alpha, double gamma) {
  std::ostringstream out;
  out << "max_lead=" << max_lead << " alpha=" << alpha << " gamma=" << gamma;
  return out.str();
}

TransitionModel make_model(const StateSpace& space, double alpha,
                           double gamma) {
  MiningParams params;
  params.alpha = alpha;
  params.gamma = gamma;
  return TransitionModel(space, params);
}

TEST(KernelGaussSeidel, ColdStartsMatchFrozenSolveBitwise) {
  for (int max_lead : kMaxLeads) {
    const StateSpace space(max_lead);
    for (double alpha : kAlphas) {
      for (double gamma : kGammas) {
        const TransitionModel model = make_model(space, alpha, gamma);
        for (SolveMethod method :
             {SolveMethod::automatic, SolveMethod::gauss_seidel}) {
          StationaryOptions options;
          options.max_iterations = kSweepBudget;
          options.method = method;
          EXPECT_EQ(compare_solves(model, options), "")
              << cell_name(max_lead, alpha, gamma)
              << " method=" << static_cast<int>(method);
        }
      }
    }
  }
}

TEST(KernelGaussSeidel, WarmStartsMatchFrozenSolveBitwise) {
  support::Xoshiro256 rng(0x6a05'5e1d'e1ULL);
  for (int max_lead : kMaxLeads) {
    const StateSpace space(max_lead);
    for (double alpha : kAlphas) {
      for (double gamma : kGammas) {
        const TransitionModel model = make_model(space, alpha, gamma);
        StationaryOptions options;
        options.max_iterations = kSweepBudget;
        const std::vector<double> random =
            random_warm_start(rng, space.size());
        // A bisection step's warm start: the solution at a nearby alpha.
        const std::vector<double> neighbour =
            markov::solve_stationary(make_model(space, alpha * 0.97, gamma),
                                     options)
                .values();
        for (const std::vector<double>* initial : {&random, &neighbour}) {
          options.initial = initial;
          EXPECT_EQ(compare_solves(model, options), "")
              << cell_name(max_lead, alpha, gamma)
              << (initial == &random ? " random" : " neighbour")
              << " warm start";
        }
      }
    }
  }
}

// A budget of a few sweeps leaves Gauss-Seidel short of the tolerance, so
// `automatic` hands its last iterate to power iteration; the odd budgets
// also end a doubling block early.
TEST(KernelGaussSeidel, ForcedPowerFallbackMatchesFrozenSolveBitwise) {
  support::Xoshiro256 rng(0xfa11'bac4ULL);
  int fallbacks = 0;
  for (int max_lead : kMaxLeads) {
    const StateSpace space(max_lead);
    for (double alpha : kAlphas) {
      for (double gamma : kGammas) {
        const TransitionModel model = make_model(space, alpha, gamma);
        const std::vector<double> random =
            random_warm_start(rng, space.size());
        for (int max_iterations : {2, 7, 21}) {
          for (const std::vector<double>* initial :
               {static_cast<const std::vector<double>*>(nullptr), &random}) {
            StationaryOptions options;
            options.max_iterations = max_iterations;
            options.initial = initial;
            EXPECT_EQ(compare_solves(model, options), "")
                << cell_name(max_lead, alpha, gamma)
                << " max_iterations=" << max_iterations
                << (initial == nullptr ? " cold" : " warm");
            fallbacks +=
                markov::solve_stationary(model, options).method() ==
                SolveMethod::power;
          }
        }
      }
    }
  }
  EXPECT_GT(fallbacks, 0) << "no solve took the power-iteration fallback";
}

}  // namespace
}  // namespace ethsm
