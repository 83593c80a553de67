// Propagation-delay simulator: the honest-network baseline that motivates
// uncle rewards (paper Sec. VI: "due to propagation delay, mining pools with
// huge hash power are less likely to generate stale blocks"; related work
// [18] studies selfish mining under delay).
//
// The paper's attack model assumes instantaneous propagation, so *all* stale
// blocks there are attack-induced. This module supplies the complementary
// substrate: an all-honest network where every block needs `delay` seconds
// to reach the other miners, so natural forks (and hence uncles) appear at a
// rate governed by delay x block rate. It grounds two things:
//   * the empirical uncle rate of real Ethereum (~7-10%) as a delay effect,
//   * the Sec. VI centralization argument: a miner with a larger hash share
//     wastes a smaller fraction of its blocks, because it never forks
//     against itself (quantified by per-class stale fractions).
//
// Model: n miners, miner i holding share[i] of hash power. A block mined by
// i at time t is visible to everyone else from t + delay, and to i at once.
// Miners mine on the longest chain they can see (first-seen tie-breaking)
// and reference every eligible *visible* uncle (a miner does not reference
// its own still-propagating stale blocks -- documented approximation).

#ifndef ETHSM_SIM_DELAY_SIM_H
#define ETHSM_SIM_DELAY_SIM_H

#include <vector>

#include "chain/reward_ledger.h"
#include "rewards/reward_schedule.h"
#include "support/checkpoint.h"
#include "support/stats.h"

namespace ethsm::sim {

struct DelaySimConfig {
  /// Hash-power shares; empty => 20 equal miners. Must sum to ~1.
  std::vector<double> shares;
  /// Propagation delay in units of the mean block interval (Ethereum:
  /// ~2s delay / ~14s interval ~ 0.15).
  double delay = 0.15;
  std::uint64_t num_blocks = 100'000;
  std::uint64_t seed = 0xde1a7ULL;
  rewards::RewardConfig rewards = rewards::RewardConfig::ethereum_byzantium();

  void validate() const;
  [[nodiscard]] std::vector<double> effective_shares() const;
};

struct DelaySimResult {
  chain::LedgerResult ledger;
  std::uint64_t blocks_mined = 0;
  double duration = 0.0;
  /// Fraction of each miner's blocks that missed the main chain (referenced
  /// uncles included -- they pay less than a full block). The Sec. VI
  /// centralization argument is that this fraction shrinks with hash share.
  std::vector<double> per_miner_stale_fraction;
  std::vector<std::uint64_t> per_miner_blocks;

  /// Referenced uncles per regular block.
  [[nodiscard]] double uncle_rate() const;
  /// All non-main-chain blocks (referenced or not) per regular block.
  [[nodiscard]] double stale_rate() const;
};

/// Runs the all-honest delay network; deterministic given the seed.
[[nodiscard]] DelaySimResult run_delay_simulation(const DelaySimConfig& config);

/// Mean/CI aggregation across independent delay-network runs.
struct DelayMultiRunSummary {
  support::RunningStats uncle_rate;
  support::RunningStats stale_rate;
  support::RunningStats duration;
  /// Per-miner stale-fraction stats across runs (Sec. VI centralization:
  /// larger hash shares waste a smaller fraction of their blocks).
  std::vector<support::RunningStats> per_miner_stale_fraction;
  int runs = 0;
};

/// Runs `runs` independent delay simulations of each configuration (seeds
/// derived from its seed) in one pool region and aggregates in run order;
/// summary k covers configs[k] and is bitwise-identical for any thread count.
/// Checkpoint/outcome contract as run_many in sim/simulator.h.
[[nodiscard]] std::vector<DelayMultiRunSummary> run_delay_many(
    const std::vector<DelaySimConfig>& configs, int runs,
    const support::SweepCheckpoint& checkpoint = {},
    support::SweepOutcome* outcome = nullptr);

/// Checkpoint-store fingerprint of a run_delay_many sweep (checkpoint GC).
[[nodiscard]] std::uint64_t run_delay_many_fingerprint(
    const DelaySimConfig& config, int runs);

}  // namespace ethsm::sim

namespace ethsm::support {

template <>
struct CheckpointCodec<sim::DelaySimResult> {
  static void encode(ByteWriter& w, const sim::DelaySimResult& result);
  static sim::DelaySimResult decode(ByteReader& r);
};

}  // namespace ethsm::support

#endif  // ETHSM_SIM_DELAY_SIM_H
