#include "sim/sim_result.h"

#include "support/check.h"

namespace ethsm::sim {

void SimConfig::validate() const {
  ETHSM_EXPECTS(alpha >= 0.0 && alpha < 0.5,
                "alpha must lie in [0, 0.5): a majority pool trivially wins");
  ETHSM_EXPECTS(gamma >= 0.0 && gamma <= 1.0, "gamma must lie in [0, 1]");
  ETHSM_EXPECTS(num_blocks > 0, "num_blocks must be positive");
}

double SimResult::normalizer(Scenario s) const {
  const auto regular = static_cast<double>(ledger.regular_total());
  if (s == Scenario::regular_rate_one) return regular;
  return regular + static_cast<double>(ledger.referenced_uncle_total());
}

double SimResult::pool_absolute_revenue(Scenario s) const {
  const double n = normalizer(s);
  if (n == 0.0) return 0.0;
  return ledger.of(chain::MinerClass::selfish).total() / n;
}

double SimResult::honest_absolute_revenue(Scenario s) const {
  const double n = normalizer(s);
  if (n == 0.0) return 0.0;
  return ledger.of(chain::MinerClass::honest).total() / n;
}

double SimResult::total_revenue(Scenario s) const {
  return pool_absolute_revenue(s) + honest_absolute_revenue(s);
}

double SimResult::pool_relative_share() const {
  const double pool = ledger.of(chain::MinerClass::selfish).total();
  const double honest = ledger.of(chain::MinerClass::honest).total();
  const double total = pool + honest;
  return total == 0.0 ? 0.0 : pool / total;
}

double SimResult::uncle_rate() const {
  const auto regular = static_cast<double>(ledger.regular_total());
  if (regular == 0.0) return 0.0;
  return static_cast<double>(ledger.referenced_uncle_total()) / regular;
}

void MultiRunSummary::absorb(const SimResult& r) {
  pool_revenue_s1.add(r.pool_absolute_revenue(Scenario::regular_rate_one));
  pool_revenue_s2.add(
      r.pool_absolute_revenue(Scenario::regular_and_uncle_rate_one));
  honest_revenue_s1.add(r.honest_absolute_revenue(Scenario::regular_rate_one));
  honest_revenue_s2.add(
      r.honest_absolute_revenue(Scenario::regular_and_uncle_rate_one));
  total_revenue_s1.add(r.total_revenue(Scenario::regular_rate_one));
  total_revenue_s2.add(r.total_revenue(Scenario::regular_and_uncle_rate_one));
  pool_share.add(r.pool_relative_share());
  uncle_rate.add(r.uncle_rate());
  uncle_distance_pool.merge(
      r.ledger.uncle_distance[static_cast<std::size_t>(
          chain::MinerClass::selfish)]);
  uncle_distance_honest.merge(
      r.ledger.uncle_distance[static_cast<std::size_t>(
          chain::MinerClass::honest)]);
  ++runs;
}

}  // namespace ethsm::sim

namespace ethsm::support {

void CheckpointCodec<sim::SimResult>::encode(ByteWriter& w,
                                             const sim::SimResult& result) {
  CheckpointCodec<chain::LedgerResult>::encode(w, result.ledger);
  w.u64(result.blocks_mined_pool);
  w.u64(result.blocks_mined_honest);
  w.f64(result.duration);
}

sim::SimResult CheckpointCodec<sim::SimResult>::decode(ByteReader& r) {
  sim::SimResult result;
  result.ledger = CheckpointCodec<chain::LedgerResult>::decode(r);
  result.blocks_mined_pool = r.u64();
  result.blocks_mined_honest = r.u64();
  result.duration = r.f64();
  return result;
}

}  // namespace ethsm::support
