// Discrete-event mining simulator (paper Sec. III-A, V).
//
// Mining is a Poisson race: with the time axis rescaled as in Sec. IV-B the
// system produces blocks at rate 1, each block belonging to the pool with
// probability alpha and to the honest side with probability beta = 1 - alpha.
// The pool runs the attack state machine (miner::SelfishPolicy): Algorithm 1
// with the default Strategy, or a stubborn variant of it; honest miners
// follow the protocol (HonestPolicy) with gamma tie-breaking. A default
// Strategy is Algorithm 1 bit for bit, so a "selfish" stubborn sweep and
// run_many on the same configuration produce identical runs.
//
// This is the *aggregate* simulator: the honest side is a single entity whose
// tie-break is sampled per block (exactly the Markov model's assumption). The
// population simulator (population_sim.h) tracks 1000 individual miners as in
// the paper's evaluation and is validated against this one.

#ifndef ETHSM_SIM_SIMULATOR_H
#define ETHSM_SIM_SIMULATOR_H

#include <vector>

#include "miner/selfish_policy.h"
#include "sim/sim_config.h"
#include "sim/sim_result.h"
#include "support/checkpoint.h"

namespace ethsm::sim {

/// Runs one simulation; deterministic given config.seed. The pool attacks
/// with `strategy` (default: Algorithm 1); in control mode
/// (!config.pool_uses_selfish_strategy) everybody mines honestly and the
/// strategy is unused.
[[nodiscard]] SimResult run_simulation(const SimConfig& config,
                                       const miner::Strategy& strategy = {});

/// run_simulation under its older name, kept for the layer harness
/// (perfbench/layers.cpp).
[[nodiscard]] inline SimResult run_stubborn_simulation(
    const SimConfig& config, const miner::Strategy& strategy) {
  return run_simulation(config, strategy);
}

/// Runs `runs` independent simulations (seeds derived from config.seed) and
/// aggregates. The paper uses runs = 10.
///
/// With checkpoint.directory set, per-run results persist there (keyed by
/// run_many_fingerprint) so an interrupted or sharded sweep resumes/merges
/// to a bitwise-identical aggregate. `outcome` reports resume/shard
/// progress; when the merged grid is incomplete (some runs belong to other
/// shards or exceeded the job budget) the partial aggregate is only returned
/// if the caller passed `outcome` to inspect -- otherwise the driver refuses
/// rather than silently aggregating a subset.
[[nodiscard]] MultiRunSummary run_many(
    const SimConfig& config, int runs,
    const support::SweepCheckpoint& checkpoint = {},
    support::SweepOutcome* outcome = nullptr);

/// run_many over a list of configurations in one pool region (one job
/// budget, one outcome): summary k aggregates configs[k]'s runs, exactly as
/// run_many(configs[k], runs) would.
[[nodiscard]] std::vector<MultiRunSummary> run_many(
    const std::vector<SimConfig>& configs, int runs,
    const support::SweepCheckpoint& checkpoint = {},
    support::SweepOutcome* outcome = nullptr);

/// One sweep of a stubborn list: the base configuration and the variant.
struct StubbornSweep {
  SimConfig config;
  miner::Strategy strategy;
};

/// Multi-run aggregation for stubborn variants over a list of sweeps in one
/// pool region; semantics as the list form of run_many. Every sweep must
/// have an attacking pool (std::invalid_argument otherwise).
[[nodiscard]] std::vector<MultiRunSummary> run_stubborn_many(
    const std::vector<StubbornSweep>& sweeps, int runs,
    const support::SweepCheckpoint& checkpoint = {},
    support::SweepOutcome* outcome = nullptr);

/// Checkpoint-store fingerprints the drivers above key their records by;
/// exposed so the checkpoint GC can attribute on-disk sweeps to the
/// experiments that own them without running anything.
[[nodiscard]] std::uint64_t run_many_fingerprint(const SimConfig& config,
                                                 int runs);
[[nodiscard]] std::uint64_t run_stubborn_many_fingerprint(
    const SimConfig& config, const miner::Strategy& strategy, int runs);

}  // namespace ethsm::sim

#endif  // ETHSM_SIM_SIMULATOR_H
