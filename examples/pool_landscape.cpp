// Pool landscape: the paper's Fig. 6 motivation made executable. Starts from
// the September-2018 Ethereum pool distribution, reports concentration
// metrics, then asks the paper's question for every real pool and for
// hypothetical coalitions: who could already mine selfishly at a profit?
// Finishes with a population simulation (n = 1000 miners) showing per-miner
// fairness when the largest pool defects.

#include <iostream>
#include <numeric>

#include "analysis/threshold.h"
#include "sim/population_sim.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace {

struct PoolShare {
  const char* name;
  double share;
};

// Fig. 6 (etherscan, 2018-09).
constexpr PoolShare kPools[] = {
    {"Ethermine", 0.2634},     {"SparkPool", 0.2246}, {"F2Pool", 0.1337},
    {"Nanopool", 0.1033},      {"MiningPoolHub", 0.0878},
    {"Others (aggregate)", 0.1872},
};

}  // namespace

int main() {
  using namespace ethsm;
  using support::TextTable;

  std::cout << "== Fig. 6: Ethereum mining-pool landscape (2018-09) ==\n\n";

  const auto config = rewards::RewardConfig::ethereum_byzantium();
  analysis::ThresholdOptions topt;
  topt.tolerance = 1e-4;
  const auto threshold_s1 = analysis::profitability_threshold(
      0.5, config, analysis::Scenario::regular_rate_one, topt);
  const auto threshold_s2 = analysis::profitability_threshold(
      0.5, config, analysis::Scenario::regular_and_uncle_rate_one, topt);

  TextTable table({"Pool", "hash share", "selfish pays? (scn 1)",
                   "selfish pays? (scn 2, EIP100)"});
  double herfindahl = 0.0;
  for (const auto& p : kPools) {
    herfindahl += p.share * p.share;
    table.add_row({p.name, TextTable::pct(p.share),
                   p.share > threshold_s1.value_or(1.0) ? "YES" : "no",
                   p.share > threshold_s2.value_or(1.0) ? "YES" : "no"});
  }
  table.print(std::cout);
  std::cout << "\nHerfindahl-Hirschman index: "
            << TextTable::num(herfindahl, 4)
            << " (monopoly = 1; >0.25 = highly concentrated)\n";
  std::cout << "Thresholds at gamma = 0.5: scenario 1 = "
            << TextTable::num(threshold_s1.value_or(-1), 3)
            << ", scenario 2 = "
            << TextTable::num(threshold_s2.value_or(-1), 3) << "\n\n";

  std::cout << "== Coalition analysis ==\n\n";
  TextTable coalition({"Coalition", "combined share", "advantage scn 1",
                       "advantage scn 2"});
  double combined = 0.0;
  std::string members;
  for (std::size_t k = 0; k < 3; ++k) {
    combined += kPools[k].share;
    members += (k ? "+" : "") + std::string(kPools[k].name);
    if (combined >= 0.5) {
      // Majority coalition: the analysis is moot -- it controls consensus
      // outright (the 51% attack the paper's introduction warns about).
      coalition.add_row({members, TextTable::pct(combined),
                         "51% attack", "51% attack"});
      continue;
    }
    const auto r = analysis::compute_revenue({combined, 0.5}, config, 120);
    coalition.add_row(
        {members, TextTable::pct(combined),
         TextTable::num(analysis::pool_absolute_revenue(
                            r, analysis::Scenario::regular_rate_one) -
                            combined, 4),
         TextTable::num(analysis::pool_absolute_revenue(
                            r, analysis::Scenario::regular_and_uncle_rate_one) -
                            combined, 4)});
  }
  coalition.print(std::cout);
  std::cout << "\n(The paper: 'top two pools have dominated 48.8%'.)\n\n";

  std::cout << "== Population run: Ethermine defects (n = 1000 miners) ==\n\n";
  sim::PopulationConfig pc;
  pc.num_miners = 1000;
  pc.base.alpha = kPools[0].share;
  pc.base.gamma = 0.5;
  pc.base.num_blocks = 100'000;
  const auto result = sim::run_population_simulation(pc);

  const double honest_per_capita =
      result.sim.ledger.of(chain::MinerClass::honest).total() /
      static_cast<double>(pc.num_miners - result.pool_size);
  const double pool_per_capita =
      result.per_miner_reward.empty() ? 0.0 : result.per_miner_reward[0];
  TextTable fairness({"metric", "value"});
  fairness.add_row({"pool members", std::to_string(result.pool_size)});
  fairness.add_row({"pool member payout (per member)",
                    TextTable::num(pool_per_capita, 2)});
  fairness.add_row({"honest miner payout (per capita)",
                    TextTable::num(honest_per_capita, 2)});
  fairness.add_row({"pool / honest per-capita ratio",
                    TextTable::num(pool_per_capita / honest_per_capita, 3)});
  fairness.add_row({"referenced uncles per regular block",
                    TextTable::num(result.sim.uncle_rate(), 3)});
  fairness.print(std::cout);

  // Confidence check: independent runs fanned out over the thread pool.
  sim::PopulationConfig many_pc = pc;
  many_pc.base.num_blocks = 30'000;
  const auto many = sim::run_population_many({many_pc}, 4).front();
  std::cout << "\nMulti-run check (4 x 30k blocks, "
            << support::ThreadPool::global().concurrency()
            << " threads): pool revenue share "
            << TextTable::num(many.sim.pool_share.mean(), 4) << " +- "
            << TextTable::num(many.sim.pool_share.ci_halfwidth(), 4)
            << " (95% CI)\n";
  return 0;
}
