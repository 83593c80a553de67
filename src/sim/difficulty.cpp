#include "sim/difficulty.h"

#include <algorithm>
#include <cmath>

namespace ethsm::sim {

DifficultyController::DifficultyController(const Options& options)
    : options_(options), difficulty_(options.initial_difficulty) {
  ETHSM_EXPECTS(options.target_rate > 0.0, "target rate must be positive");
  ETHSM_EXPECTS(options.initial_difficulty > 0.0,
                "difficulty must be positive");
  ETHSM_EXPECTS(options.max_step > 1.0, "max_step must exceed 1");
  ETHSM_EXPECTS(options.gain > 0.0 && options.gain <= 1.0,
                "gain must lie in (0, 1]");
}

double DifficultyController::counted_rate(const EpochObservation& epoch) const {
  ETHSM_EXPECTS(epoch.wall_time > 0.0, "epoch must have positive duration");
  const double counted =
      options_.scenario == Scenario::regular_rate_one
          ? static_cast<double>(epoch.regular_blocks)
          : static_cast<double>(epoch.regular_blocks +
                                epoch.referenced_uncles);
  return counted / epoch.wall_time;
}

void DifficultyController::on_epoch(const EpochObservation& epoch) {
  const double rate = counted_rate(epoch);
  if (rate <= 0.0) {
    // Nothing counted this epoch: production stalled, make mining easier by
    // the maximum allowed step.
    difficulty_ /= options_.max_step;
    return;
  }
  // Measured/target ratio, damped, clamped: the multiplicative analogue of
  // Ethereum's bounded per-block nudges.
  const double raw = rate / options_.target_rate;
  const double damped = std::pow(raw, options_.gain);
  const double step =
      std::clamp(damped, 1.0 / options_.max_step, options_.max_step);
  difficulty_ *= step;
}

}  // namespace ethsm::sim
