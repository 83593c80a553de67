// Simulation outcomes and the paper's two revenue normalizations.
//
// Paper Sec. IV-E2 defines absolute revenue under two difficulty-adjustment
// scenarios:
//   Scenario 1 (pre-EIP100): time is rescaled so the *regular* block rate is
//     1 => absolute revenue = rewards per regular block.
//   Scenario 2 (EIP100 / Byzantium): time is rescaled so the regular + uncle
//     rate is 1 => absolute revenue = rewards per (regular + referenced uncle)
//     block.

#ifndef ETHSM_SIM_SIM_RESULT_H
#define ETHSM_SIM_SIM_RESULT_H

#include <cstdint>

#include "chain/reward_ledger.h"
#include "sim/sim_config.h"
#include "support/checkpoint.h"
#include "support/stats.h"

namespace ethsm::sim {

/// Difficulty-adjustment scenario (paper Sec. IV-E2).
enum class Scenario {
  regular_rate_one = 1,          ///< Scenario 1: regular block rate = 1
  regular_and_uncle_rate_one = 2 ///< Scenario 2: regular + uncle rate = 1
};

[[nodiscard]] constexpr const char* to_string(Scenario s) noexcept {
  return s == Scenario::regular_rate_one ? "scenario 1 (regular rate = 1)"
                                         : "scenario 2 (regular+uncle rate = 1)";
}

/// Result of a single simulation run.
struct SimResult {
  chain::LedgerResult ledger;
  std::uint64_t blocks_mined_pool = 0;
  std::uint64_t blocks_mined_honest = 0;
  double duration = 0.0;  ///< simulated time (block-interarrival units)

  /// Normalization denominator for the given scenario.
  [[nodiscard]] double normalizer(Scenario s) const;

  /// Long-run absolute revenue of the pool / the honest miners, i.e. reward
  /// units per normalized block (paper Eq. (11)/(12) and its Scenario-2
  /// analogue). Honest mining would earn exactly alpha here.
  [[nodiscard]] double pool_absolute_revenue(Scenario s) const;
  [[nodiscard]] double honest_absolute_revenue(Scenario s) const;

  /// Total system revenue per normalized block (Fig. 9's "Total" curves).
  [[nodiscard]] double total_revenue(Scenario s) const;

  /// Pool's share of all rewards paid (paper's relative revenue Rs).
  [[nodiscard]] double pool_relative_share() const;

  /// Referenced uncles per regular block (what EIP100 feeds back into the
  /// difficulty).
  [[nodiscard]] double uncle_rate() const;
};

/// Mean/CI aggregation across independent runs (paper: average of 10 runs).
struct MultiRunSummary {
  support::RunningStats pool_revenue_s1;
  support::RunningStats pool_revenue_s2;
  support::RunningStats honest_revenue_s1;
  support::RunningStats honest_revenue_s2;
  support::RunningStats total_revenue_s1;
  support::RunningStats total_revenue_s2;
  support::RunningStats pool_share;
  support::RunningStats uncle_rate;
  /// Pooled uncle-distance histograms across runs (Table II).
  support::Histogram uncle_distance_pool{8};
  support::Histogram uncle_distance_honest{8};
  int runs = 0;

  void absorb(const SimResult& r);

  [[nodiscard]] support::RunningStats const& pool_revenue(Scenario s) const {
    return s == Scenario::regular_rate_one ? pool_revenue_s1 : pool_revenue_s2;
  }
  [[nodiscard]] support::RunningStats const& honest_revenue(Scenario s) const {
    return s == Scenario::regular_rate_one ? honest_revenue_s1
                                           : honest_revenue_s2;
  }
  [[nodiscard]] support::RunningStats const& total_revenue(Scenario s) const {
    return s == Scenario::regular_rate_one ? total_revenue_s1
                                           : total_revenue_s2;
  }
};

}  // namespace ethsm::sim

namespace ethsm::support {

/// Checkpoint serialization of a single run's outcome: the unit persisted by
/// the checkpointed multi-run drivers (summaries are recomputed from decoded
/// runs in index order, so resumed aggregates match fresh ones bitwise).
template <>
struct CheckpointCodec<sim::SimResult> {
  static void encode(ByteWriter& w, const sim::SimResult& result);
  static sim::SimResult decode(ByteReader& r);
};

}  // namespace ethsm::support

#endif  // ETHSM_SIM_SIM_RESULT_H
