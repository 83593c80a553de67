#include "reference_engines.h"

#include <cmath>
#include <cstdint>

#include "support/stats.h"

namespace ethsm::testing {

analysis::RevenueBreakdown reference_compute_revenue(
    const markov::StationaryDistribution& pi,
    const markov::TransitionModel& model, const rewards::RewardConfig& config) {
  using analysis::RewardFlow;
  support::KahanSum pool_static, pool_uncle, pool_nephew;
  support::KahanSum honest_static, honest_uncle, honest_nephew;
  support::KahanSum regular_rate, uncle_rate;

  // CSR row walk: the stationary mass and source state are hoisted per row,
  // and zero-mass rows (deep truncation tail) skip their reward-case
  // evaluations entirely.
  const int n = model.space().size();
  const auto& row = model.row_offsets();
  const auto& rate = model.rates();
  const auto& kind = model.kinds();
  for (int s = 0; s < n; ++s) {
    const double mass = pi[s];
    if (mass == 0.0) continue;
    const markov::State& st = model.space().state_at(s);
    for (std::uint32_t k = row[static_cast<std::size_t>(s)];
         k < row[static_cast<std::size_t>(s) + 1]; ++k) {
      const double weight = mass * rate[k];
      if (weight == 0.0) continue;
      const RewardFlow flow =
          analysis::expected_rewards(st, kind[k], model.params(), config);
      pool_static.add(weight * flow.pool_static);
      pool_uncle.add(weight * flow.pool_uncle);
      pool_nephew.add(weight * flow.pool_nephew);
      honest_static.add(weight * flow.honest_static);
      honest_uncle.add(weight * flow.honest_uncle);
      honest_nephew.add(weight * flow.honest_nephew);
      regular_rate.add(weight * flow.regular_probability);
      uncle_rate.add(weight * flow.referenced_uncle_probability);
    }
  }

  analysis::RevenueBreakdown out;
  out.pool_static = pool_static.value();
  out.pool_uncle = pool_uncle.value();
  out.pool_nephew = pool_nephew.value();
  out.honest_static = honest_static.value();
  out.honest_uncle = honest_uncle.value();
  out.honest_nephew = honest_nephew.value();
  out.regular_rate = regular_rate.value();
  out.referenced_uncle_rate = uncle_rate.value();
  return out;
}

std::vector<double> reference_solve_stationary_power(
    const markov::TransitionModel& model, double tolerance,
    int max_iterations) {
  const auto n = static_cast<std::size_t>(model.space().size());
  std::vector<double> pi(n, 0.0), next(n, 0.0);
  pi[0] = 1.0;
  // The seed solver's array-of-structs edge list, rebuilt from the CSR rows
  // in the same entry order.
  struct Edge {
    std::size_t from, to;
    double rate;
  };
  std::vector<Edge> edges;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::uint32_t e = model.row_offsets()[s];
         e < model.row_offsets()[s + 1]; ++e) {
      edges.push_back({s, static_cast<std::size_t>(model.columns()[e]),
                       model.rates()[e]});
    }
  }
  double diff = 1.0;
  for (int iter = 0; iter < max_iterations && diff > tolerance; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (const Edge& t : edges) next[t.to] += pi[t.from] * t.rate;
    diff = 0.0;
    for (std::size_t s = 0; s < n; ++s) diff += std::fabs(next[s] - pi[s]);
    pi.swap(next);
  }
  double mass = 0.0;
  for (double p : pi) mass += p;
  for (double& p : pi) p /= mass;
  return pi;
}

}  // namespace ethsm::testing
