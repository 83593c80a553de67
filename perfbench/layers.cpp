// Layer harness of the ethsm benchmark: replays every Markov job and every
// single simulation run of a workload's cells through the library's public
// entry points and times each layer on its own, then times checkpoint loads
// of the workload's store and the JSON renderer over its cells. Prints one
// JSON object.
//
//   ethsm_layers (--all | --study FILE | --spec FILE ...) [--store DIR]
//
// Replayed per kind, with the runner's defaults where a spec leaves a grid
// empty: revenue (every series x alpha, plus its alpha x sim_runs
// simulations), uncle_distance (every alpha, plus alpha x sim_runs
// simulations), threshold (every gamma x both scenarios, each a bisection
// that warm-starts its solves as the program's does), reward_design (every
// schedule and Ku value x both scenarios, bisected likewise), timeline
// (every alpha x both scenarios) and stubborn_sim (alpha x strategy x run).
// The few Markov points that retarget and net cells compute after their
// simulations are not replayed; net time comes from the program's trace.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/absolute_revenue.h"
#include "analysis/revenue.h"
#include "api/render.h"
#include "api/runner.h"
#include "api/spec.h"
#include "api/study.h"
#include "markov/stationary.h"
#include "markov/state_space.h"
#include "markov/transition_model.h"
#include "sim/simulator.h"
#include "support/checkpoint.h"
#include "support/math_util.h"
#include "support/rng.h"

namespace {

using namespace ethsm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Totals {
  std::map<std::string, double> values;
  void add(const std::string& key, double amount) { values[key] += amount; }
};

// The runner's grids for specs that leave them empty (api/runner.cpp and
// analysis/sweep.cpp).
std::vector<double> grid(double step, int first, int last) {
  std::vector<double> out;
  for (int i = first; i <= last; ++i) out.push_back(step * i);
  return out;
}

std::vector<double> or_default(const std::vector<double>& values,
                               std::vector<double> fallback) {
  return values.empty() ? fallback : values;
}

std::vector<std::string> series_rewards(const api::ExperimentSpec& spec,
                                        std::vector<std::string> fallback) {
  std::vector<std::string> out;
  for (const api::SeriesSpec& s : spec.series) out.push_back(s.rewards);
  return out.empty() ? fallback : out;
}

// One Markov evaluation, timed per layer. `warm` carries the previous
// stationary solution along a bisection, as analysis::RevenueCache does.
analysis::RevenueBreakdown evaluate(const markov::StateSpace& space,
                                    double alpha, double gamma,
                                    const rewards::RewardConfig& config,
                                    std::vector<double>* warm, Totals& t) {
  const auto build_start = Clock::now();
  const markov::TransitionModel model(space, {alpha, gamma});
  t.add("markov.build_s", seconds_since(build_start));
  t.add("markov.builds", 1);
  t.add("markov.states_total", static_cast<double>(space.size()));
  t.add("markov.nnz_total", static_cast<double>(model.row_offsets().back()));

  markov::StationaryOptions options;
  if (warm != nullptr && !warm->empty()) options.initial = warm;
  const auto solve_start = Clock::now();
  const markov::StationaryDistribution pi = markov::solve_stationary(model, options);
  t.add("markov.solve_s", seconds_since(solve_start));
  if (warm != nullptr) *warm = pi.values();

  const auto kernel_start = Clock::now();
  const analysis::RevenueBreakdown revenue =
      analysis::compute_revenue(pi, model, config);
  t.add("analysis.kernel_s", seconds_since(kernel_start));
  t.add("analysis.kernel_calls", 1);
  t.add("analysis.kernel_entries",
        static_cast<double>(model.row_offsets().back()));
  const double share = revenue.pool_relative_share();
  if (!(share >= 0.0 && share <= 1.0)) {
    throw std::runtime_error("revenue share out of [0, 1]");
  }
  return revenue;
}

void point(int max_lead, double alpha, double gamma,
           const rewards::RewardConfig& config, Totals& t) {
  const markov::StateSpace space(max_lead);
  (void)evaluate(space, alpha, gamma, config, nullptr, t);
}

// profitability_threshold_report's bisection, replayed step by step.
void threshold_search(const api::ExperimentSpec& spec, double gamma,
                      const rewards::RewardConfig& config, Totals& t) {
  for (const sim::Scenario scenario :
       {sim::Scenario::regular_rate_one,
        sim::Scenario::regular_and_uncle_rate_one}) {
    const markov::StateSpace space(spec.threshold_max_lead);
    std::vector<double> warm;
    (void)support::first_true_report(
        [&](double alpha) {
          const auto r = evaluate(space, alpha, gamma, config, &warm, t);
          return analysis::pool_absolute_revenue(r, scenario) - alpha >= 0.0;
        },
        spec.alpha_min, spec.alpha_max, spec.tolerance);
  }
}

void time_sim(const sim::SimConfig& config, const std::string* strategy,
              Totals& t) {
  const auto start = Clock::now();
  const sim::SimResult result =
      strategy ? sim::run_stubborn_simulation(config,
                                              api::parse_strategy_spec(*strategy))
               : sim::run_simulation(config);
  (void)result;
  t.add("sim.run_s", seconds_since(start));
  t.add("sim.runs", 1);
  t.add("sim.blocks", static_cast<double>(config.num_blocks));
}

void sims(const api::ExperimentSpec& spec, const std::vector<double>& alphas,
          const std::string& rewards, int runs, const std::string* strategy,
          Totals& t) {
  for (const double alpha : alphas) {
    if (alpha <= 0.0) continue;
    for (int run = 0; run < runs; ++run) {
      sim::SimConfig config;
      config.alpha = alpha;
      config.gamma = spec.gamma;
      config.num_blocks = spec.sim_blocks;
      config.seed = support::derive_seed(spec.sim_seed,
                                         static_cast<std::uint64_t>(run));
      config.rewards = api::parse_reward_spec(rewards);
      time_sim(config, strategy, t);
    }
  }
}

void replay(const api::ExperimentSpec& spec, Totals& t) {
  using api::ExperimentKind;
  switch (spec.kind) {
    case ExperimentKind::revenue: {
      const auto alphas = or_default(spec.alphas, grid(0.025, 0, 18));
      for (const std::string& rewards : series_rewards(spec, {spec.rewards})) {
        const auto config = api::parse_reward_spec(rewards);
        for (const double alpha : alphas) {
          point(spec.max_lead, alpha, spec.gamma, config, t);
        }
        sims(spec, alphas, rewards, spec.sim_runs, nullptr, t);
      }
      break;
    }
    case ExperimentKind::uncle_distance: {
      const auto alphas = or_default(spec.alphas, {0.3, 0.45});
      for (const double alpha : alphas) {
        point(spec.max_lead, alpha, spec.gamma,
              api::parse_reward_spec(spec.rewards), t);
      }
      sims(spec, alphas, spec.rewards, spec.sim_runs, nullptr, t);
      break;
    }
    case ExperimentKind::threshold: {
      const auto config = api::parse_reward_spec(spec.rewards);
      for (const double gamma : or_default(spec.gammas, grid(0.05, 0, 20))) {
        threshold_search(spec, gamma, config, t);
      }
      break;
    }
    case ExperimentKind::reward_design: {
      for (const std::string& rewards :
           series_rewards(spec, {"byzantium", "flat:0.5"})) {
        threshold_search(spec, spec.gamma, api::parse_reward_spec(rewards), t);
      }
      for (const double ku : or_default(spec.ku_values, grid(0.125, 1, 7))) {
        threshold_search(spec, spec.gamma,
                         rewards::RewardConfig::ethereum_flat(ku), t);
      }
      break;
    }
    case ExperimentKind::timeline: {
      const auto config = api::parse_reward_spec(spec.rewards);
      for (const double alpha :
           or_default(spec.alphas, {0.06, 0.10, 0.15, 0.20, 0.25, 0.30,
                                    0.35, 0.40, 0.45})) {
        for (int scenario = 0; scenario < 2; ++scenario) {
          point(spec.max_lead, alpha, spec.gamma, config, t);
        }
      }
      break;
    }
    case ExperimentKind::stubborn_sim: {
      const std::vector<std::string> strategies = {
          "selfish", "lead", "fork", "trail:1", "trail:2", "lead+fork"};
      std::vector<std::string> chosen;
      for (const api::SeriesSpec& s : spec.series) chosen.push_back(s.strategy);
      if (chosen.empty()) chosen = strategies;
      const auto alphas = or_default(spec.alphas, grid(0.05, 2, 9));
      for (const std::string& strategy : chosen) {
        sims(spec, alphas, spec.rewards, std::max(spec.sim_runs, 1), &strategy,
             t);
      }
      break;
    }
    default:
      break;
  }
}

void time_store(const std::string& store,
                const std::vector<api::StudyEntry>& entries, Totals& t) {
  std::set<std::uint64_t> fingerprints;
  for (const support::CheckpointFileInfo& file :
       support::scan_checkpoint_directory(store)) {
    if (file.readable) fingerprints.insert(file.fingerprint);
  }
  for (const std::uint64_t fingerprint : fingerprints) {
    const auto start = Clock::now();
    const support::CheckpointStore opened(store, fingerprint);
    t.add("checkpoint.load_s", seconds_since(start));
  }

  api::RunOptions options;
  options.checkpoint.directory = store;
  for (const api::StudyEntry& entry : entries) {
    const api::ExperimentResult result = api::run(entry.spec, options);
    const auto start = Clock::now();
    const std::string json = api::render_json(result);
    t.add("api.render_s", seconds_since(start));
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool all = false;
  std::string study_file;
  std::vector<std::string> spec_files;
  std::string store;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--all") {
      all = true;
    } else if (arg == "--study") {
      study_file = next();
    } else if (arg == "--spec") {
      spec_files.push_back(next());
    } else if (arg == "--store") {
      store = next();
    } else {
      std::cerr << "ethsm_layers: unknown argument " << arg << "\n";
      return 2;
    }
  }
  try {
    std::vector<api::StudyEntry> entries;
    if (all) {
      entries = api::paper_study_entries(false);
    } else if (!study_file.empty()) {
      entries = api::expand_study(api::parse_study(read_file(study_file)),
                                  false, {});
    } else if (!spec_files.empty()) {
      for (const std::string& file : spec_files) {
        entries.push_back({file, file, api::parse_spec(read_file(file))});
      }
    } else {
      std::cerr << "ethsm_layers: give --all, --study FILE or --spec FILE\n";
      return 2;
    }

    Totals t;
    for (const api::StudyEntry& entry : entries) replay(entry.spec, t);
    // Model size per model built, not a sum over the workload.
    const double builds = std::max(1.0, t.values["markov.builds"]);
    t.values["markov.states"] = t.values["markov.states_total"] / builds;
    t.values["markov.nnz"] = t.values["markov.nnz_total"] / builds;
    if (!store.empty()) time_store(store, entries, t);

    std::ostringstream out;
    out.precision(9);
    out << "{";
    const char* separator = "";
    for (const auto& [key, value] : t.values) {
      out << separator << '"' << key << "\": " << value;
      separator = ", ";
    }
    out << "}";
    std::cout << out.str() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "ethsm_layers: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
