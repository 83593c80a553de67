// Population simulator: the paper's literal evaluation rig (Sec. V).
//
// n miners of equal hash power are tracked individually; the selfish pool
// controls pool_size() of them and runs Algorithm 1 as one coordinated unit,
// while every honest miner keeps its *own* adopted tip. When a tie between
// two equal-length public branches appears, each honest miner independently
// prefers the pool's branch with probability gamma and keeps that preference
// until the tie resolves (first-seen semantics). It is the test oracle for
// the gamma abstraction that both the Markov model and the aggregate
// simulator (sim/simulator.h) make, and it also yields per-miner revenue.

#ifndef ETHSM_TESTS_SIM_POPULATION_SIM_H
#define ETHSM_TESTS_SIM_POPULATION_SIM_H

#include <cstdint>
#include <vector>

#include "sim/sim_config.h"
#include "sim/sim_result.h"

namespace ethsm::sim {

/// Extra knobs for the population simulator.
struct PopulationConfig {
  SimConfig base;
  /// Total miners; the pool controls round(alpha * num_miners) of them, and
  /// alpha is snapped to that ratio (paper: 1000 miners, pool <= 450).
  std::uint32_t num_miners = 1000;

  void validate() const;
  [[nodiscard]] std::uint32_t pool_size() const;
  /// alpha after snapping to pool_size() / num_miners.
  [[nodiscard]] double effective_alpha() const;
};

/// Result of a population run: the usual SimResult plus per-miner revenue.
struct PopulationResult {
  SimResult sim;
  /// Reward total per miner id; ids [0, pool_size) belong to the pool.
  std::vector<double> per_miner_reward;
  std::uint32_t pool_size = 0;
  double effective_alpha = 0.0;

  /// Sum of pool members' rewards divided by total rewards.
  [[nodiscard]] double pool_member_share() const;
};

/// Runs one population simulation; deterministic given config.base.seed.
[[nodiscard]] PopulationResult run_population_simulation(
    const PopulationConfig& config);

}  // namespace ethsm::sim

#endif  // ETHSM_TESTS_SIM_POPULATION_SIM_H
