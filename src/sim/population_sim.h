// Population simulator: the paper's literal evaluation rig (Sec. V).
//
// n miners of equal hash power are tracked individually; the selfish pool
// controls pool_size() of them and runs Algorithm 1 as one coordinated unit,
// while every honest miner keeps its *own* adopted tip. When a tie between
// two equal-length public branches appears, each honest miner independently
// prefers the pool's branch with probability gamma and keeps that preference
// until the tie resolves (first-seen semantics). This validates the gamma
// abstraction used by both the Markov model and the aggregate simulator, and
// additionally yields per-miner revenue (used by the pool_landscape example
// for fairness analysis).

#ifndef ETHSM_SIM_POPULATION_SIM_H
#define ETHSM_SIM_POPULATION_SIM_H

#include <vector>

#include "sim/sim_config.h"
#include "sim/sim_result.h"

namespace ethsm::sim {

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

/// Mean/CI aggregation across independent population runs.
struct PopulationMultiRunSummary {
  MultiRunSummary sim;
  support::RunningStats pool_member_share;
  std::uint32_t pool_size = 0;
  double effective_alpha = 0.0;
};

/// Runs `runs` independent population simulations of each configuration
/// (seeds derived from its base.seed) in one pool region and aggregates in
/// run order; summary k covers configs[k] and is bitwise-identical for any
/// thread count. Checkpoint/outcome contract as run_many in sim/simulator.h.
[[nodiscard]] std::vector<PopulationMultiRunSummary> run_population_many(
    const std::vector<PopulationConfig>& configs, int runs,
    const support::SweepCheckpoint& checkpoint = {},
    support::SweepOutcome* outcome = nullptr);

/// Checkpoint-store fingerprint of a run_population_many sweep (GC).
[[nodiscard]] std::uint64_t run_population_many_fingerprint(
    const PopulationConfig& config, int runs);

}  // namespace ethsm::sim

namespace ethsm::support {

template <>
struct CheckpointCodec<sim::PopulationResult> {
  static void encode(ByteWriter& w, const sim::PopulationResult& result);
  static sim::PopulationResult decode(ByteReader& r);
};

}  // namespace ethsm::support

#endif  // ETHSM_SIM_POPULATION_SIM_H
