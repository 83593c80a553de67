// Quickstart: "would selfish mining pay off for a pool like mine?"
//
//   ./quickstart [alpha] [gamma]
//
// Takes a hash-power share and a network-capability gamma, and answers with
// both the Markov analysis and a quick simulation: absolute revenue under
// honest vs selfish mining, in both difficulty scenarios, plus the
// profitability threshold for this gamma.

#include <cstdlib>
#include <iostream>

#include "analysis/bitcoin_es.h"
#include "analysis/sweep.h"
#include "support/table.h"
#include "support/thread_pool.h"

int main(int argc, char** argv) {
  using namespace ethsm;
  using support::TextTable;

  const double alpha = argc > 1 ? std::atof(argv[1]) : 0.2634;  // Ethermine
  const double gamma = argc > 2 ? std::atof(argv[2]) : 0.5;
  if (alpha < 0.0 || alpha >= 0.5 || gamma < 0.0 || gamma > 1.0) {
    std::cerr << "usage: quickstart [alpha in [0,0.5)] [gamma in [0,1]]\n";
    return 1;
  }

  std::cout << "Pool hash power alpha = " << alpha
            << ", network capability gamma = " << gamma
            << " (Byzantium rewards; sim threads: "
            << support::ThreadPool::global().concurrency()
            << ", override with ETHSM_THREADS)\n\n";

  // Analysis.
  const auto config = rewards::RewardConfig::ethereum_byzantium();
  const auto r = analysis::compute_revenue({alpha, gamma}, config,
                                           analysis::recommended_max_lead(
                                               {alpha, gamma}));

  // Simulation cross-check (3 runs x 100k blocks).
  sim::SimConfig sc;
  sc.alpha = alpha;
  sc.gamma = gamma;
  sc.rewards = config;
  const auto sum = sim::run_many({sc}, 3).front();

  TextTable table({"difficulty rule", "honest mining", "selfish (analysis)",
                   "selfish (simulated)", "verdict"});
  for (const auto scenario : {analysis::Scenario::regular_rate_one,
                              analysis::Scenario::regular_and_uncle_rate_one}) {
    const double us = analysis::pool_absolute_revenue(r, scenario);
    const double sim_us = sum.pool_revenue(scenario).mean();
    table.add_row({to_string(scenario), TextTable::num(alpha, 4),
                   TextTable::num(us, 4), TextTable::num(sim_us, 4),
                   us > alpha ? "SELFISH PAYS" : "stay honest"});
  }
  table.print(std::cout);

  for (const auto scenario : {analysis::Scenario::regular_rate_one,
                              analysis::Scenario::regular_and_uncle_rate_one}) {
    const auto threshold =
        analysis::profitability_threshold(gamma, config, scenario);
    std::cout << "\nProfitability threshold under " << to_string(scenario)
              << ": "
              << (threshold ? TextTable::num(*threshold, 4) : "none in (0,0.5)");
  }
  std::cout << "\n\nFor comparison, Bitcoin's threshold at this gamma: "
            << TextTable::num(analysis::eyal_sirer_threshold(gamma), 4)
            << " (Eyal-Sirer)\n";
  return 0;
}
