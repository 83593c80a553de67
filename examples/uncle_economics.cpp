// Uncle economics: why Ethereum pays uncles at all, and what that design
// trades away (paper Sec. VI in both directions).
//
// Part 1 sweeps propagation delay in an all-honest network: natural fork
// rate, uncle rate, and the reward spread between a large and a small miner
// with and without uncle rewards -- the centralization bias uncles fix.
//
// Part 2 prices the flip side: the same uncle generosity subsidises selfish
// mining (threshold table per schedule).
//
//   ./uncle_economics

#include <iostream>

#include "analysis/threshold.h"
#include "sim/delay_sim.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace {

using namespace ethsm;
using support::TextTable;

/// Reward-per-hash ratio of a 30% miner vs a 5% miner under `rewards`,
/// in an honest network with the given delay. 1.0 = perfectly fair.
double size_advantage(double delay, const rewards::RewardConfig& rewards,
                      std::uint64_t seed) {
  sim::DelaySimConfig config;
  config.shares = {0.30};
  for (int i = 0; i < 14; ++i) config.shares.push_back(0.05);
  config.delay = delay;
  config.num_blocks = 120'000;
  config.seed = seed;
  config.rewards = rewards;
  const auto r = sim::run_delay_simulation(config);

  const double big = r.ledger.per_miner_reward[0] / 0.30;
  double small = 0.0;
  for (std::size_t m = 1; m < config.shares.size(); ++m) {
    small += r.ledger.per_miner_reward[m];
  }
  small /= (14 * 0.05);
  return big / small;
}

}  // namespace

int main() {
  std::cout << "== Part 1: natural forks in an honest network ==\n\n";

  TextTable forks({"delay (block intervals)", "stale/regular", "uncle/regular",
                   "uncles referenced", "30%-vs-5% advantage (Byz)",
                   "same, no uncle rewards"});
  for (double delay : {0.05, 0.10, 0.15, 0.25, 0.40}) {
    sim::DelaySimConfig config;
    config.delay = delay;
    config.num_blocks = 100'000;
    config.seed = 42;
    const auto r = sim::run_delay_simulation(config);
    forks.add_row(
        {TextTable::num(delay, 2), TextTable::num(r.stale_rate(), 4),
         TextTable::num(r.uncle_rate(), 4),
         TextTable::pct(r.stale_rate() > 0
                            ? r.uncle_rate() / r.stale_rate()
                            : 0.0, 1),
         TextTable::num(size_advantage(delay,
                                       rewards::RewardConfig::ethereum_byzantium(),
                                       7), 4),
         TextTable::num(size_advantage(delay, rewards::RewardConfig::bitcoin(),
                                       7), 4)});
  }
  forks.print(std::cout);

  // Error bars for the headline point, runs fanned out over the thread pool.
  sim::DelaySimConfig ci_config;
  ci_config.delay = 0.15;
  ci_config.num_blocks = 30'000;
  ci_config.seed = 42;
  const auto many = sim::run_delay_many({ci_config}, 4).front();
  std::cout << "\nUncle rate at delay 0.15 over 4 x 30k-block runs ("
            << support::ThreadPool::global().concurrency()
            << " threads): " << TextTable::num(many.uncle_rate.mean(), 4)
            << " +- " << TextTable::num(many.uncle_rate.ci_halfwidth(), 4)
            << " (95% CI)\n";
  std::cout << "\nReal Ethereum context: delay/interval ~ 0.15 gives an uncle "
               "rate near the ~7-10% observed on-chain. Without uncle\n"
               "rewards the big miner's per-hash advantage grows with delay "
               "(the centralization bias, Sec. VI); with them it is\n"
               "mostly neutralized.\n\n";

  std::cout << "== Part 2: what the subsidy costs in attack resistance ==\n\n";
  TextTable price({"schedule", "alpha* scenario 1 (gamma=0.5)"});
  analysis::ThresholdOptions opt;
  opt.tolerance = 1e-4;
  for (const auto& [label, cfg] :
       {std::pair<std::string, rewards::RewardConfig>{
            "Bitcoin (no uncles)", rewards::RewardConfig::bitcoin()},
        {"Flat 2/8", rewards::RewardConfig::ethereum_flat(0.25)},
        {"Flat 4/8 (Sec. VI)", rewards::RewardConfig::ethereum_flat(0.5)},
        {"Byzantium (8-d)/8", rewards::RewardConfig::ethereum_byzantium()}}) {
    const auto t = analysis::profitability_threshold(
        0.5, cfg, analysis::Scenario::regular_rate_one, opt);
    price.add_row({label, t ? TextTable::num(*t, 3) : "never"});
  }
  price.print(std::cout);
  std::cout << "\nThe generosity that fixes the fairness gap is exactly what "
               "lowers the selfish-mining bar from 0.25 to 0.054.\n";
  return 0;
}
