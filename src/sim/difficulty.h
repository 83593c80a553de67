// Difficulty-adjustment substrate (paper Sec. II-C and Sec. IV-E2).
//
// The paper compares two difficulty regimes without simulating either:
//   Scenario 1 (pre-EIP100): difficulty holds the *regular*-block rate fixed;
//   Scenario 2 (EIP100/Byzantium): difficulty holds the regular+uncle rate
//   fixed.
// This module closes that loop: an epoch-based retargeting controller (a
// substitution for Ethereum's per-block rule: per-block difficulty is
// chain-local state that the paper's single-difficulty model abstracts
// away) adjusts difficulty from the observed production of the
// last epoch, and retarget_sim.h runs the selfish-mining attack under the
// live controller. The paper's static normalizations must then *emerge* as
// the controller's fixed point -- which the ext_difficulty preset verifies.

#ifndef ETHSM_SIM_DIFFICULTY_H
#define ETHSM_SIM_DIFFICULTY_H

#include <cstdint>

#include "sim/sim_result.h"
#include "support/check.h"

namespace ethsm::sim {

/// What one finished epoch looked like to the difficulty rule.
struct EpochObservation {
  double wall_time = 0.0;              ///< seconds the epoch took
  std::uint64_t regular_blocks = 0;    ///< main-chain growth in the epoch
  std::uint64_t referenced_uncles = 0; ///< uncles referenced by that growth
};

/// Epoch-based difficulty controller. The `scenario` decides which rate it
/// tries to pin at `target_rate` (blocks per second): regular only, or
/// regular + referenced uncles (EIP100).
class DifficultyController {
 public:
  struct Options {
    Scenario scenario = Scenario::regular_rate_one;
    double target_rate = 1.0;       ///< counted blocks per second
    double initial_difficulty = 1.0;
    /// Retarget step clamp per epoch (Bitcoin clamps at 4x; Ethereum's
    /// per-block rule moves far slower). Keeps the loop stable under the
    /// abrupt rate changes a selfish pool causes.
    double max_step = 2.0;
    /// Exponential smoothing of the correction (1 = jump straight to the
    /// measured ratio; lower = damped).
    double gain = 0.75;
  };

  explicit DifficultyController(const Options& options);

  /// Current difficulty; the simulator's block rate is hash_rate/difficulty.
  [[nodiscard]] double difficulty() const noexcept { return difficulty_; }

  /// Digest one epoch and retarget.
  void on_epoch(const EpochObservation& epoch);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// The rate the controller counts for an observation (regular or
  /// regular+uncles, per second of wall time).
  [[nodiscard]] double counted_rate(const EpochObservation& epoch) const;

 private:
  Options options_;
  double difficulty_;
};

}  // namespace ethsm::sim

#endif  // ETHSM_SIM_DIFFICULTY_H
