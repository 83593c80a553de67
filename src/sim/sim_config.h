// Simulation configuration (paper Sec. V: 10 runs x 100,000 blocks).

#ifndef ETHSM_SIM_SIM_CONFIG_H
#define ETHSM_SIM_SIM_CONFIG_H

#include <cstdint>

#include "rewards/reward_schedule.h"

namespace ethsm::sim {

struct SimConfig {
  /// Selfish pool's share of total hash power (paper: alpha <= 0.45).
  double alpha = 0.3;
  /// Fraction of honest hash power mining on the pool's branch during ties.
  double gamma = 0.5;
  /// Blocks mined per run (the paper uses 100,000).
  std::uint64_t num_blocks = 100'000;
  /// Master seed; derive per-run seeds with support::derive_seed.
  std::uint64_t seed = 0x5e1f15ULL;
  /// Reward schedules + reference horizon/caps.
  rewards::RewardConfig rewards = rewards::RewardConfig::ethereum_byzantium();
  /// When false the pool mines honestly too (control experiment: everyone
  /// follows the protocol, revenue share must equal hash share).
  bool pool_uses_selfish_strategy = true;

  void validate() const;
};

}  // namespace ethsm::sim

#endif  // ETHSM_SIM_SIM_CONFIG_H
