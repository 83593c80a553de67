#include "sim/delay_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "chain/block_tree.h"
#include "chain/uncle_index.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/trace.h"

namespace ethsm::sim {

void DelaySimConfig::validate() const {
  ETHSM_EXPECTS(delay >= 0.0, "delay must be non-negative");
  ETHSM_EXPECTS(num_blocks > 0, "num_blocks must be positive");
  const auto shares_eff = effective_shares();
  const double total =
      std::accumulate(shares_eff.begin(), shares_eff.end(), 0.0);
  ETHSM_EXPECTS(std::fabs(total - 1.0) < 1e-6, "shares must sum to 1");
  for (double s : shares_eff) {
    ETHSM_EXPECTS(s > 0.0, "every miner needs positive hash power");
  }
}

std::vector<double> DelaySimConfig::effective_shares() const {
  if (!shares.empty()) return shares;
  return std::vector<double>(20, 1.0 / 20.0);
}

double DelaySimResult::uncle_rate() const {
  const auto regular = static_cast<double>(ledger.regular_total());
  return regular == 0.0
             ? 0.0
             : static_cast<double>(ledger.referenced_uncle_total()) / regular;
}

double DelaySimResult::stale_rate() const {
  const auto regular = static_cast<double>(ledger.regular_total());
  if (regular == 0.0) return 0.0;
  const auto stale = static_cast<double>(
      ledger.fates[0].stale + ledger.fates[1].stale +
      ledger.referenced_uncle_total());
  return stale / regular;
}

DelaySimResult run_delay_simulation(const DelaySimConfig& config) {
  config.validate();
  support::trace::Span span("delay.run");  // one clock pair per run
  const auto shares = config.effective_shares();
  const auto n = static_cast<std::uint32_t>(shares.size());

  // Cumulative shares for miner sampling.
  std::vector<double> cumulative(shares.size());
  std::partial_sum(shares.begin(), shares.end(), cumulative.begin());

  chain::BlockTree& tree = chain::thread_local_tree(config.num_blocks + 1);
  support::Xoshiro256 rng(config.seed);

  // Reveal queue: blocks become globally visible `delay` after creation.
  // Constant delay => FIFO order.
  struct PendingReveal {
    chain::BlockId block;
    double at;
  };
  std::deque<PendingReveal> reveal_queue;

  chain::BlockId global_best = tree.genesis();
  std::uint32_t global_best_height = 0;
  // Each miner's own latest block (visible to itself immediately).
  std::vector<chain::BlockId> own_tip(n, chain::kNoBlock);

  auto process_reveals = [&](double now) {
    while (!reveal_queue.empty() && reveal_queue.front().at <= now) {
      const auto [block, at] = reveal_queue.front();
      reveal_queue.pop_front();
      tree.publish(block, at);
      // First revealed block at a new height wins the global tie-break.
      if (tree.height(block) > global_best_height) {
        global_best = block;
        global_best_height = tree.height(block);
      }
    }
  };

  const int horizon = config.rewards.reference_horizon();
  chain::UncleScratch uncle_scratch;  // reused across the whole run
  DelaySimResult result;
  result.per_miner_blocks.assign(n, 0);

  double now = 0.0;
  for (std::uint64_t step = 0; step < config.num_blocks; ++step) {
    now += rng.exponential(1.0);
    process_reveals(now);

    // Sample the finder proportionally to hash power.
    const double u = rng.uniform01();
    const auto miner = static_cast<std::uint32_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());

    // The finder mines on the best chain IT can see: its own latest block
    // beats the revealed best at equal height (it saw its own first).
    chain::BlockId parent = global_best;
    if (own_tip[miner] != chain::kNoBlock &&
        tree.height(own_tip[miner]) >= global_best_height) {
      parent = own_tip[miner];
    }

    uncle_scratch.refs.clear();
    if (horizon > 0) {
      chain::collect_uncle_references(tree, parent, horizon,
                                      config.rewards.max_uncles_per_block,
                                      uncle_scratch);
    }
    const auto id = tree.append(parent, chain::MinerClass::honest, miner, now,
                                uncle_scratch.refs);
    own_tip[miner] = id;
    ++result.per_miner_blocks[miner];

    if (config.delay == 0.0) {
      process_reveals(now);  // keep queue empty
      reveal_queue.push_back({id, now});
      process_reveals(now);
    } else {
      reveal_queue.push_back({id, now + config.delay});
    }
  }
  // Drain the queue so every block is visible for final accounting.
  process_reveals(now + config.delay + 1.0);

  result.blocks_mined = config.num_blocks;
  result.duration = now;
  result.ledger = chain::settle_rewards(tree, global_best, config.rewards, n);

  // Per-miner stale fractions (Sec. VI: big miners waste less).
  const auto fates = chain::classify_blocks(tree, global_best);
  std::vector<std::uint64_t> stale(n, 0);
  for (chain::BlockId b = 1; b < tree.size(); ++b) {
    if (fates[b] == chain::BlockFate::stale ||
        fates[b] == chain::BlockFate::referenced_uncle) {
      ++stale[tree.block(b).miner_id];
    }
  }
  result.per_miner_stale_fraction.assign(n, 0.0);
  for (std::uint32_t m = 0; m < n; ++m) {
    if (result.per_miner_blocks[m] > 0) {
      result.per_miner_stale_fraction[m] =
          static_cast<double>(stale[m]) /
          static_cast<double>(result.per_miner_blocks[m]);
    }
  }
  return result;
}

std::uint64_t run_delay_many_fingerprint(const DelaySimConfig& config,
                                         int runs) {
  support::Fingerprint fp;
  fp.mix("run_delay_many/v1");
  for (double share : config.effective_shares()) fp.mix(share);
  fp.mix(config.delay);
  fp.mix(config.num_blocks);
  fp.mix(config.seed);
  fp.mix(rewards::sweep_fingerprint(config.rewards));
  fp.mix(runs);
  return fp.digest();
}

std::vector<DelayMultiRunSummary> run_delay_many(
    const std::vector<DelaySimConfig>& configs, int runs,
    const support::SweepCheckpoint& checkpoint,
    support::SweepOutcome* outcome) {
  std::vector<support::SeededSweep> sweeps;
  std::vector<DelayMultiRunSummary> summaries(configs.size());
  for (std::size_t s = 0; s < configs.size(); ++s) {
    configs[s].validate();
    sweeps.push_back(
        {run_delay_many_fingerprint(configs[s], runs), configs[s].seed, runs});
    summaries[s].per_miner_stale_fraction.resize(
        configs[s].effective_shares().size());
  }
  support::run_seeded(
      checkpoint, outcome, sweeps,
      [&configs](std::size_t s, std::uint64_t seed) {
        DelaySimConfig run_config = configs[s];
        run_config.seed = seed;
        return run_delay_simulation(run_config);
      },
      [&summaries](std::size_t s, const DelaySimResult& r) {
        DelayMultiRunSummary& summary = summaries[s];
        summary.uncle_rate.add(r.uncle_rate());
        summary.stale_rate.add(r.stale_rate());
        summary.duration.add(r.duration);
        for (std::size_t m = 0; m < summary.per_miner_stale_fraction.size();
             ++m) {
          summary.per_miner_stale_fraction[m].add(
              r.per_miner_stale_fraction[m]);
        }
        ++summary.runs;
      });
  return summaries;
}

}  // namespace ethsm::sim

namespace ethsm::support {

void CheckpointCodec<sim::DelaySimResult>::encode(
    ByteWriter& w, const sim::DelaySimResult& result) {
  CheckpointCodec<chain::LedgerResult>::encode(w, result.ledger);
  w.u64(result.blocks_mined);
  w.f64(result.duration);
  w.f64_vec(result.per_miner_stale_fraction);
  w.u64_vec(result.per_miner_blocks);
}

sim::DelaySimResult CheckpointCodec<sim::DelaySimResult>::decode(
    ByteReader& r) {
  sim::DelaySimResult result;
  result.ledger = CheckpointCodec<chain::LedgerResult>::decode(r);
  result.blocks_mined = r.u64();
  result.duration = r.f64();
  result.per_miner_stale_fraction = r.f64_vec();
  result.per_miner_blocks = r.u64_vec();
  return result;
}

}  // namespace ethsm::support

