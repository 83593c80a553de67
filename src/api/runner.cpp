#include "api/runner.h"

#include <algorithm>
#include <sstream>

#include "analysis/absolute_revenue.h"
#include "analysis/attack_timeline.h"
#include "analysis/solve_memo.h"
#include "analysis/sweep.h"
#include "analysis/uncle_distance.h"
#include "net/net_sim.h"
#include "sim/delay_sim.h"
#include "sim/retarget_sim.h"
#include "sim/simulator.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/table.h"
#include "support/trace.h"

namespace ethsm::api {

namespace {

using support::TextTable;

sim::Scenario scenario_of(const ExperimentSpec& spec) {
  return spec.scenario == 1 ? sim::Scenario::regular_rate_one
                            : sim::Scenario::regular_and_uncle_rate_one;
}

// ------------------------------------------------ per-kind default series --

std::vector<SeriesSpec> resolved_series(const ExperimentSpec& spec) {
  if (!spec.series.empty()) return spec.series;
  switch (spec.kind) {
    case ExperimentKind::revenue: {
      SeriesSpec s;
      s.label = spec.rewards;
      s.rewards = spec.rewards;
      return {s};
    }
    case ExperimentKind::reward_design: {
      SeriesSpec byz{"Ku(.) Byzantium (8-d)/8", "byzantium", "selfish"};
      SeriesSpec flat{"Ku = 4/8 flat (proposal)", "flat:0.5", "selfish"};
      return {byz, flat};
    }
    case ExperimentKind::stubborn_sim: {
      std::vector<SeriesSpec> all;
      for (const auto& [label, strategy] :
           {std::pair<const char*, const char*>{"Alg.1", "selfish"},
            {"L", "lead"},
            {"F", "fork"},
            {"T1", "trail:1"},
            {"T2", "trail:2"},
            {"L+F", "lead+fork"}}) {
        SeriesSpec s;
        s.label = label;
        s.rewards = spec.rewards;
        s.strategy = strategy;
        all.push_back(std::move(s));
      }
      return all;
    }
    default:
      return {};
  }
}

std::vector<double> default_grid(const ExperimentSpec& spec) {
  switch (spec.kind) {
    case ExperimentKind::stubborn_sim:
      return {0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45};
    case ExperimentKind::timeline:
      return {0.06, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45};
    case ExperimentKind::uncle_distance:
      return {0.3, 0.45};
    case ExperimentKind::net:
      return {0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45};
    default:
      return {};
  }
}

std::vector<double> resolved_alphas(const ExperimentSpec& spec) {
  return spec.alphas.empty() ? default_grid(spec) : spec.alphas;
}

std::vector<double> resolved_ku_values(const ExperimentSpec& spec) {
  if (!spec.ku_values.empty()) return spec.ku_values;
  std::vector<double> kus;
  for (int eighths = 1; eighths <= 7; ++eighths) kus.push_back(eighths / 8.0);
  return kus;
}

std::vector<double> resolved_delays(const ExperimentSpec& spec) {
  if (!spec.delays.empty()) return spec.delays;
  return {0.05, 0.10, 0.15, 0.25, 0.40};
}

// --------------------------------------------------------- option builders --

analysis::RevenueCurveOptions revenue_options(const ExperimentSpec& spec,
                                              const SeriesSpec& series) {
  analysis::RevenueCurveOptions opt;
  opt.gamma = spec.gamma;
  opt.rewards = parse_reward_spec(series.rewards);
  opt.scenario = scenario_of(spec);
  opt.alphas = spec.alphas;
  opt.max_lead = spec.max_lead;
  opt.sim_runs = spec.sim_runs;
  opt.sim_blocks = spec.sim_blocks;
  opt.sim_seed = spec.sim_seed;
  return opt;
}

analysis::ThresholdOptions threshold_search_options(
    const ExperimentSpec& spec) {
  analysis::ThresholdOptions opt;
  opt.alpha_min = spec.alpha_min;
  opt.alpha_max = spec.alpha_max;
  opt.tolerance = spec.tolerance;
  opt.max_lead = spec.threshold_max_lead;
  return opt;
}

analysis::ThresholdCurveOptions threshold_options(const ExperimentSpec& spec) {
  analysis::ThresholdCurveOptions opt;
  opt.rewards = parse_reward_spec(spec.rewards);
  opt.gammas = spec.gammas;
  opt.threshold = threshold_search_options(spec);
  return opt;
}

/// Runs per simulated point, for every sweep list below. Simulation-only
/// kinds have no analysis fallback, so sim_runs = 0 (the spec default,
/// meaning "no cross-check" for the curve kinds) clamps to one run instead of
/// tripping the drivers' runs > 0 precondition.
int simulation_runs(const ExperimentSpec& spec) {
  return std::max(spec.sim_runs, 1);
}

// ------------------------------------------------------------ sweep lists --
// One list per kind names every checkpointed sweep the kind runs, in run
// order: the grid and series it resolves, alpha x series nesting, the
// sim_runs gate and the clean baseline of a faulted net spec are decided
// here; every simulated sweep runs simulation_runs(spec) seeded copies.
// run_<kind> executes its whole list in one driver call (one pool region, one
// job budget) and sweep_fingerprints digests it, so the keys a study manifest
// lists and the checkpoint GC keeps are exactly the keys the runs write.

struct NetSweep {
  net::NetSimConfig config;
  bool clean_baseline = false;  ///< fault-free twin of the sweep before it
};

/// One revenue_curve per series (Markov key, plus the simulation key when
/// sim_runs > 0 -- that gate lives in analysis::revenue_curve_fingerprints).
std::vector<analysis::RevenueCurveOptions> revenue_sweeps(
    const ExperimentSpec& spec) {
  std::vector<analysis::RevenueCurveOptions> sweeps;
  for (const SeriesSpec& s : resolved_series(spec)) {
    sweeps.push_back(revenue_options(spec, s));
  }
  return sweeps;
}

/// One run_many cross-check per alpha, none when sim_runs = 0.
std::vector<sim::SimConfig> uncle_distance_sweeps(const ExperimentSpec& spec) {
  std::vector<sim::SimConfig> sweeps;
  if (spec.sim_runs <= 0) return sweeps;
  for (double alpha : resolved_alphas(spec)) {
    sim::SimConfig config;
    config.alpha = alpha;
    config.gamma = spec.gamma;
    config.num_blocks = spec.sim_blocks;
    config.seed = spec.sim_seed;
    config.rewards = parse_reward_spec(spec.rewards);
    sweeps.push_back(config);
  }
  return sweeps;
}

/// One sweep per (alpha, series), alpha-major: variant k at alpha a is
/// sweeps[a * series + k].
std::vector<sim::StubbornSweep> stubborn_sweeps(const ExperimentSpec& spec) {
  const auto series = resolved_series(spec);
  std::vector<sim::StubbornSweep> sweeps;
  for (double alpha : resolved_alphas(spec)) {
    sim::SimConfig config;
    config.alpha = alpha;
    config.gamma = spec.gamma;
    config.num_blocks = spec.sim_blocks;
    // Per-alpha seed chain: master + round(alpha * 1e4).
    config.seed = spec.sim_seed + static_cast<std::uint64_t>(alpha * 1e4);
    config.rewards = parse_reward_spec(spec.rewards);
    for (const SeriesSpec& s : series) {
      sweeps.push_back({config, parse_strategy_spec(s.strategy)});
    }
  }
  return sweeps;
}

std::vector<sim::DelaySimConfig> delay_sweeps(const ExperimentSpec& spec) {
  std::vector<sim::DelaySimConfig> sweeps;
  for (double delay : resolved_delays(spec)) {
    sim::DelaySimConfig config;
    config.shares = spec.shares;
    config.delay = delay;
    config.num_blocks = spec.sim_blocks;
    config.seed = spec.sim_seed;
    config.rewards = parse_reward_spec(spec.rewards);
    sweeps.push_back(config);
  }
  return sweeps;
}

/// Per alpha: the spec's sweep, then -- when it injects faults -- a
/// fault-free baseline with the same seed and topology, so the table can show
/// what the faults changed. The two carry distinct fingerprints and share the
/// checkpoint store safely.
std::vector<NetSweep> net_sweeps(const ExperimentSpec& spec) {
  std::vector<NetSweep> sweeps;
  for (double alpha : resolved_alphas(spec)) {
    net::NetSimConfig config;
    config.alpha = alpha;
    config.honest_nodes = static_cast<std::uint32_t>(spec.net_nodes);
    config.topology = net::parse_topology_spec(spec.net_topology);
    config.latency = net::parse_latency_spec(spec.net_latency);
    config.relay = net::relay_mode_from_string(spec.net_relay);
    config.faults.drop = spec.net_fault_drop;
    config.faults.churn = net::parse_churn_spec(spec.net_fault_churn);
    config.faults.partition =
        net::parse_partition_spec(spec.net_fault_partition);
    config.faults.eclipse = net::parse_eclipse_spec(spec.net_fault_eclipse);
    config.num_blocks = spec.sim_blocks;
    config.seed = spec.sim_seed;
    config.rewards = parse_reward_spec(spec.rewards);
    sweeps.push_back({config, false});
    if (config.faults.any()) {
      config.faults = net::FaultSpec{};
      sweeps.push_back({config, true});
    }
  }
  return sweeps;
}

// ------------------------------------------------------------ kind runners --

void run_revenue(const ExperimentSpec& spec, const RunOptions& options,
                 ExperimentResult& result) {
  const auto series = resolved_series(spec);
  support::SweepOutcome outcome;
  const auto curves = analysis::revenue_curve(revenue_sweeps(spec),
                                              options.checkpoint, &outcome);
  result.outcome = outcome;
  if (!outcome.complete()) return;

  const bool single = series.size() == 1;
  const bool with_sim = spec.sim_runs > 0;
  ResultTable table;
  auto& cols = table.columns;
  cols.push_back(Column::make_numeric("alpha", 3));
  cols.push_back(Column::make_numeric("honest mining", 3));
  auto label_of = [&](const char* base, const SeriesSpec& s) {
    return single ? std::string(base) + " (analysis)"
                  : std::string(base) + " " + s.label;
  };
  for (std::size_t k = 0; k < series.size(); ++k) {
    cols.push_back(Column::make_numeric(label_of("Us", series[k])));
    if (with_sim) {
      cols.push_back(Column::make_numeric(
          single ? "Us (sim)" : "Us sim " + series[k].label));
      cols.push_back(Column::make_numeric(
          single ? "Us +-95%" : "Us +-95% " + series[k].label));
    }
  }
  for (std::size_t k = 0; k < series.size(); ++k) {
    cols.push_back(Column::make_numeric(label_of("Uh", series[k])));
    if (with_sim) {
      cols.push_back(Column::make_numeric(
          single ? "Uh (sim)" : "Uh sim " + series[k].label));
      cols.push_back(Column::make_numeric(
          single ? "Uh +-95%" : "Uh +-95% " + series[k].label));
    }
  }
  if (!single) {
    for (std::size_t k = 0; k < series.size(); ++k) {
      cols.push_back(Column::make_numeric("Tot " + series[k].label));
    }
  }

  const std::size_t rows = curves.front().size();
  for (std::size_t i = 0; i < rows; ++i) {
    std::size_t c = 0;
    cols[c++].numbers.push_back(curves[0][i].alpha);
    cols[c++].numbers.push_back(curves[0][i].alpha);
    for (const auto& curve : curves) {
      cols[c++].numbers.push_back(curve[i].pool_revenue);
      if (with_sim) {
        cols[c++].numbers.push_back(curve[i].pool_revenue_sim);
        cols[c++].numbers.push_back(curve[i].pool_revenue_sim_ci);
      }
    }
    for (const auto& curve : curves) {
      cols[c++].numbers.push_back(curve[i].honest_revenue);
      if (with_sim) {
        cols[c++].numbers.push_back(curve[i].honest_revenue_sim);
        cols[c++].numbers.push_back(curve[i].honest_revenue_sim_ci);
      }
    }
    if (!single) {
      for (const auto& curve : curves) {
        cols[c++].numbers.push_back(curve[i].total_revenue);
      }
    }
  }
  result.tables.push_back(std::move(table));

  for (std::size_t k = 0; k < series.size(); ++k) {
    double crossing = -1.0;
    for (const auto& p : curves[k]) {
      if (p.alpha > 0.0 && p.pool_revenue >= p.alpha) {
        crossing = p.alpha;
        break;
      }
    }
    std::ostringstream note;
    note << "[" << series[k].label << "] first grid alpha with Us >= alpha: "
         << (crossing >= 0.0 ? TextTable::num(crossing, 3) : "none")
         << "; total revenue at alpha=" << TextTable::num(
                curves[k].back().alpha, 3)
         << ": " << TextTable::pct(curves[k].back().total_revenue);
    result.notes.push_back(note.str());
  }
}

void run_threshold(const ExperimentSpec& spec, const RunOptions& options,
                   ExperimentResult& result) {
  support::SweepOutcome outcome;
  const auto curve = analysis::threshold_curve(threshold_options(spec),
                                               options.checkpoint, &outcome);
  result.outcome = outcome;
  if (!outcome.complete()) return;

  ResultTable table;
  table.columns = {Column::make_numeric("gamma", 2),
                   Column::make_numeric("Bitcoin (Eyal-Sirer)"),
                   Column::make_numeric("Ethereum scenario 1", 4, "never"),
                   Column::make_numeric("Ethereum scenario 2", 4, "never"),
                   Column::make_text("scn1 vs BTC"),
                   Column::make_text("scn2 vs BTC")};
  double crossover = -1.0;
  double previous_delta = -1.0;
  for (const auto& p : curve) {
    table.columns[0].numbers.push_back(p.gamma);
    table.columns[1].numbers.push_back(p.bitcoin);
    table.columns[2].numbers.push_back(p.ethereum_scenario1);
    table.columns[3].numbers.push_back(p.ethereum_scenario2);
    const double d1 = p.ethereum_scenario1.value_or(1.0) - p.bitcoin;
    const double d2 = p.ethereum_scenario2.value_or(1.0) - p.bitcoin;
    table.columns[4].text.push_back(d1 < 0 ? "below" : "above");
    table.columns[5].text.push_back(d2 < 0 ? "below" : "above");
    if (previous_delta <= 0.0 && d2 > 0.0 && crossover < 0.0 && p.gamma > 0) {
      crossover = p.gamma;
    }
    previous_delta = d2;
  }
  result.tables.push_back(std::move(table));
  result.notes.push_back(
      "Scenario 2 crosses above Bitcoin at gamma ~ " +
      (crossover > 0 ? TextTable::num(crossover, 2) : std::string("n/a")) +
      "   (paper: gamma ~ 0.39)");
  result.notes.push_back(
      "Landmark: Bitcoin threshold at gamma=0.5 is 0.25 (Eyal-Sirer).");
}

void run_reward_design(const ExperimentSpec& spec, ExperimentResult& result) {
  const auto series = resolved_series(spec);
  const auto ku_values = resolved_ku_values(spec);
  const auto opt = threshold_search_options(spec);

  // One row per schedule, series first, then the flat-Ku sweep; each row
  // searches both scenarios. The searches share nothing (each owns its
  // RevenueCache), so all of them run as one pool region.
  std::vector<rewards::RewardConfig> rows;
  for (const SeriesSpec& s : series) {
    rows.push_back(parse_reward_spec(s.rewards));
  }
  for (double ku : ku_values) {
    rows.push_back(rewards::RewardConfig::ethereum_flat(ku));
  }
  const auto thresholds =
      support::parallel_map(2 * rows.size(), [&](std::size_t j) {
        return analysis::profitability_threshold(
            spec.gamma, rows[j / 2],
            j % 2 == 0 ? sim::Scenario::regular_rate_one
                       : sim::Scenario::regular_and_uncle_rate_one,
            opt);
      });

  ResultTable headline;
  headline.title = "Thresholds per schedule (gamma = " +
                   TextTable::num(spec.gamma, 2) + ")";
  headline.columns = {Column::make_text("Schedule"),
                      Column::make_numeric("alpha* scenario 1", 3, "never"),
                      Column::make_numeric("alpha* scenario 2", 3, "never")};
  ResultTable sweep;
  sweep.title = "Designer sweep: flat Ku value vs threshold";
  sweep.columns = {Column::make_numeric("ku", 4),
                   Column::make_numeric("threshold_s1", 3, "never"),
                   Column::make_numeric("threshold_s2", 3, "never")};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    ResultTable& table = r < series.size() ? headline : sweep;
    if (r < series.size()) {
      table.columns[0].text.push_back(series[r].label);
    } else {
      table.columns[0].numbers.push_back(ku_values[r - series.size()]);
    }
    table.columns[1].numbers.push_back(thresholds[2 * r]);
    table.columns[2].numbers.push_back(thresholds[2 * r + 1]);
  }
  result.tables.push_back(std::move(headline));
  result.tables.push_back(std::move(sweep));
  result.csv_table = 1;  // the historical sec6 CSV payload
  result.notes.push_back(
      "Lower flat values resist selfish mining better but weaken the "
      "anti-centralization incentive uncles were designed for (Sec. VI).");
}

void run_uncle_distance(const ExperimentSpec& spec, const RunOptions& options,
                        ExperimentResult& result) {
  const auto alphas = resolved_alphas(spec);
  ETHSM_EXPECTS(!alphas.empty(), "uncle_distance needs at least one alpha");

  support::SweepOutcome outcome;
  const auto sims =  // one per alpha, or none
      sim::run_many(uncle_distance_sweeps(spec), simulation_runs(spec),
                    options.checkpoint, &outcome);
  result.outcome = outcome;
  if (!outcome.complete()) return;
  const bool with_sim = !sims.empty();
  const auto analysis_side =
      support::parallel_map(alphas.size(), [&](std::size_t a) {
        return analysis::honest_uncle_distance_distribution(
            {alphas[a], spec.gamma}, spec.max_lead);
      }, alphas);  // a solve costs more as alpha nears 1/2

  ResultTable table;
  table.columns.push_back(Column::make_text("Referencing distance"));
  for (std::size_t a = 0; a < alphas.size(); ++a) {
    const std::string tag = "alpha=" + TextTable::num(alphas[a], 2);
    table.columns.push_back(Column::make_numeric(tag + " (analysis)", 3));
    if (with_sim) {
      table.columns.push_back(Column::make_numeric(tag + " (sim)", 3));
    }
  }
  for (int d = 1; d <= 6; ++d) {
    std::size_t c = 0;
    table.columns[c++].text.push_back(std::to_string(d));
    for (std::size_t a = 0; a < alphas.size(); ++a) {
      table.columns[c++].numbers.push_back(
          analysis_side[a].fraction[static_cast<std::size_t>(d)]);
      if (with_sim) {
        table.columns[c++].numbers.push_back(
            sims[a].uncle_distance_honest.conditional_fraction(
                static_cast<std::size_t>(d), 1, 6));
      }
    }
  }
  {
    std::size_t c = 0;
    table.columns[c++].text.push_back("Expectation");
    for (std::size_t a = 0; a < alphas.size(); ++a) {
      table.columns[c++].numbers.push_back(analysis_side[a].expectation);
      if (with_sim) {
        table.columns[c++].numbers.push_back(
            sims[a].uncle_distance_honest.conditional_mean(1, 6));
      }
    }
  }
  result.tables.push_back(std::move(table));

  if (with_sim) {
    result.notes.push_back(
        "Pool uncles are always referenced at distance 1 (Remark 5): sim "
        "pool d=1 fraction = " +
        TextTable::num(
            sims.back().uncle_distance_pool.conditional_fraction(1, 1, 6),
            3));
  }
}

void run_reward_table(ExperimentResult& result) {
  ResultTable inventory;
  inventory.title = "Table I: mining rewards in Ethereum and Bitcoin";
  inventory.columns = {
      Column::make_text("Reward type"), Column::make_text("Ethereum"),
      Column::make_text("Bitcoin"), Column::make_text("Purpose")};
  for (const auto& row : rewards::table1_reward_inventory()) {
    inventory.columns[0].text.push_back(row.reward_type);
    inventory.columns[1].text.push_back(row.in_ethereum ? "yes" : "no");
    inventory.columns[2].text.push_back(row.in_bitcoin ? "yes" : "no");
    inventory.columns[3].text.push_back(row.purpose);
  }
  result.tables.push_back(std::move(inventory));

  ResultTable schedule;
  schedule.title = "Concrete schedules (relative to Ks = 1)";
  schedule.columns = {Column::make_numeric("distance d", 0),
                      Column::make_numeric("Ku(d) Byzantium"),
                      Column::make_numeric("Ku(d) flat 4/8"),
                      Column::make_numeric("Kn(d) nephew")};
  const rewards::ByzantiumUncleSchedule byzantium;
  const rewards::FlatUncleSchedule flat(0.5);
  const rewards::NephewRewardSchedule nephew;
  for (int d = 1; d <= 7; ++d) {
    schedule.columns[0].numbers.push_back(d);
    schedule.columns[1].numbers.push_back(byzantium.reward(d));
    schedule.columns[2].numbers.push_back(flat.reward(d));
    schedule.columns[3].numbers.push_back(nephew.reward(d));
  }
  result.tables.push_back(std::move(schedule));
  result.notes.push_back(
      "Ku(d) = (8-d)/8 for d in 1..6 (paper Eq. (7)); Kn = 1/32 within the "
      "same horizon.");
}

void run_stubborn_sim(const ExperimentSpec& spec, const RunOptions& options,
                      ExperimentResult& result) {
  const auto series = resolved_series(spec);
  const auto alphas = resolved_alphas(spec);
  const sim::Scenario scenario = scenario_of(spec);

  support::SweepOutcome outcome;
  const auto summaries =
      sim::run_stubborn_many(stubborn_sweeps(spec), simulation_runs(spec),
                             options.checkpoint, &outcome);
  result.outcome = outcome;
  if (!outcome.complete()) return;
  // Pool revenue of variant k at alphas[a].
  auto revenue = [&](std::size_t a, std::size_t k) {
    return summaries[a * series.size() + k].pool_revenue(scenario).mean();
  };

  ResultTable table;
  table.columns.push_back(Column::make_numeric("alpha", 2));
  table.columns.push_back(Column::make_numeric("honest", 2));
  for (const SeriesSpec& s : series) {
    table.columns.push_back(Column::make_numeric(s.label));
  }
  table.columns.push_back(Column::make_text("best"));
  for (std::size_t a = 0; a < alphas.size(); ++a) {
    std::size_t c = 0;
    table.columns[c++].numbers.push_back(alphas[a]);
    table.columns[c++].numbers.push_back(alphas[a]);
    std::size_t best = 0;
    for (std::size_t k = 0; k < series.size(); ++k) {
      table.columns[c++].numbers.push_back(revenue(a, k));
      if (revenue(a, k) > revenue(a, best)) best = k;
    }
    table.columns[c].text.push_back(series[best].label);
  }
  result.tables.push_back(std::move(table));
  result.notes.push_back(
      "Nayak et al. showed stubborn variants can beat vanilla selfish mining "
      "in parts of the (alpha, gamma) plane; this table answers the same "
      "question with Ethereum's uncle and nephew rewards in play.");
}

void run_timeline(const ExperimentSpec& spec, ExperimentResult& result) {
  const auto config = parse_reward_spec(spec.rewards);
  ResultTable table;
  table.columns = {Column::make_numeric("alpha", 2),
                   Column::make_numeric("bleed rate (s1)"),
                   Column::make_numeric("gain rate (s1)"),
                   Column::make_numeric("breakeven blocks (s1)", 0, "never"),
                   Column::make_numeric("bleed rate (s2)"),
                   Column::make_numeric("gain rate (s2)"),
                   Column::make_numeric("breakeven blocks (s2)", 0, "never")};
  // Timeline 2a is scenario 1 at alphas[a], 2a + 1 scenario 2 (same chain).
  const auto alphas = resolved_alphas(spec);
  std::vector<analysis::ColdSolve> solves;
  for (std::size_t j = 0; j < 2 * alphas.size(); ++j) {
    solves.push_back({{alphas[j / 2], spec.gamma}, spec.max_lead});
  }
  const auto timelines =
      support::parallel_map(solves.size(), [&](std::size_t j) {
        return analysis::compute_attack_timeline(
            solves[j].params, config,
            j % 2 == 0 ? sim::Scenario::regular_rate_one
                       : sim::Scenario::regular_and_uncle_rate_one,
            spec.max_lead);
      }, analysis::cold_solve_costs(solves));
  for (std::size_t a = 0; a < alphas.size(); ++a) {
    const auto& s1 = timelines[2 * a];
    const auto& s2 = timelines[2 * a + 1];
    std::size_t c = 0;
    table.columns[c++].numbers.push_back(alphas[a]);
    table.columns[c++].numbers.push_back(s1.initial_bleed_rate());
    table.columns[c++].numbers.push_back(s1.steady_gain_rate());
    table.columns[c++].numbers.push_back(
        s1.breakeven_time(spec.phase1_blocks));
    table.columns[c++].numbers.push_back(s2.initial_bleed_rate());
    table.columns[c++].numbers.push_back(s2.steady_gain_rate());
    table.columns[c++].numbers.push_back(
        s2.breakeven_time(spec.phase1_blocks));
  }
  result.tables.push_back(std::move(table));
  result.notes.push_back(
      "Even above the threshold the attacker must pre-finance the bleed "
      "through one retarget window; EIP100 both raises the threshold AND "
      "stretches the repayment period.");
}

void run_retarget(const ExperimentSpec& spec, ExperimentResult& result) {
  const auto rewards_config = parse_reward_spec(spec.rewards);
  for (const sim::Scenario scenario :
       {sim::Scenario::regular_rate_one,
        sim::Scenario::regular_and_uncle_rate_one}) {
    sim::RetargetConfig config;
    config.base.alpha = spec.alpha;
    config.base.gamma = spec.gamma;
    config.base.seed = spec.sim_seed;
    config.base.rewards = rewards_config;
    config.controller.scenario = scenario;
    config.controller.target_rate = 1.0;
    config.controller.initial_difficulty = 1.0;
    config.epoch_blocks = spec.epoch_blocks;
    config.epochs = spec.epochs;
    const auto run = sim::run_retarget_simulation(config);

    ResultTable table;
    table.title = to_string(scenario);
    table.columns = {Column::make_numeric("epoch", 0),
                     Column::make_numeric("difficulty"),
                     Column::make_numeric("regular/s", 3),
                     Column::make_numeric("counted/s", 3),
                     Column::make_numeric("pool reward/s")};
    const std::size_t step = std::max<std::size_t>(run.epochs.size() / 6, 1);
    for (std::size_t i = 0; i < run.epochs.size(); i += step) {
      const auto& e = run.epochs[i];
      table.columns[0].numbers.push_back(static_cast<double>(i));
      table.columns[1].numbers.push_back(e.difficulty);
      table.columns[2].numbers.push_back(e.regular_rate);
      table.columns[3].numbers.push_back(e.counted_rate);
      table.columns[4].numbers.push_back(e.pool_reward_rate);
    }
    result.tables.push_back(std::move(table));

    const auto r = analysis::compute_revenue({spec.alpha, spec.gamma},
                                             rewards_config, spec.max_lead);
    const double us = analysis::pool_absolute_revenue(r, scenario);
    std::ostringstream note;
    note << "[" << to_string(scenario) << "] steady counted rate "
         << TextTable::num(run.steady_counted_rate, 4)
         << " (target 1.0); pool revenue per counted block "
         << TextTable::num(run.steady_pool_revenue_per_counted_block(), 4)
         << " vs static analysis Us = " << TextTable::num(us, 4)
         << "; total reward rate/s "
         << TextTable::num(
                run.steady_pool_reward_rate + run.steady_honest_reward_rate,
                4);
    result.notes.push_back(note.str());
  }
}

void run_delay(const ExperimentSpec& spec, const RunOptions& options,
               ExperimentResult& result) {
  const auto delays = resolved_delays(spec);
  const int runs = simulation_runs(spec);

  support::SweepOutcome outcome;
  const auto summaries = sim::run_delay_many(delay_sweeps(spec), runs,
                                             options.checkpoint, &outcome);
  result.outcome = outcome;
  if (!outcome.complete()) return;

  ResultTable table;
  table.columns = {Column::make_numeric("delay (block intervals)", 2),
                   Column::make_numeric("stale/regular"),
                   Column::make_numeric("uncle/regular"),
                   Column::make_numeric("uncle +-95%"),
                   Column::make_numeric("referenced fraction", 3)};
  for (std::size_t i = 0; i < delays.size(); ++i) {
    const auto& s = summaries[i];
    table.columns[0].numbers.push_back(delays[i]);
    table.columns[1].numbers.push_back(s.stale_rate.mean());
    table.columns[2].numbers.push_back(s.uncle_rate.mean());
    table.columns[3].numbers.push_back(s.uncle_rate.ci_halfwidth());
    table.columns[4].numbers.push_back(
        s.stale_rate.mean() > 0 ? s.uncle_rate.mean() / s.stale_rate.mean()
                                : 0.0);
  }
  result.tables.push_back(std::move(table));
  result.notes.push_back(
      "Real Ethereum context: delay/interval ~ 0.15 gives an uncle rate near "
      "the ~7-10% observed on-chain (" + std::to_string(runs) +
      " runs per point).");
}

void run_net(const ExperimentSpec& spec, const RunOptions& options,
             ExperimentResult& result) {
  const auto alphas = resolved_alphas(spec);
  const sim::Scenario scenario = scenario_of(spec);
  const auto rewards_config = parse_reward_spec(spec.rewards);

  const auto sweeps = net_sweeps(spec);
  std::vector<net::NetSimConfig> configs;
  for (const NetSweep& s : sweeps) configs.push_back(s.config);
  support::SweepOutcome outcome;
  auto all = net::run_net_many(configs, simulation_runs(spec),
                               options.checkpoint, &outcome);
  result.outcome = outcome;
  if (!outcome.complete()) return;
  std::vector<net::NetMultiRunSummary> summaries;
  std::vector<net::NetMultiRunSummary> clean;  // one per alpha when faulted
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    (sweeps[k].clean_baseline ? clean : summaries).push_back(std::move(all[k]));
  }
  const bool faulted = !clean.empty();

  // The Markov model at the measured gamma (job 2i) and at the spec's fixed
  // gamma (job 2i + 1), for alphas[i].
  std::vector<analysis::ColdSolve> solves;
  for (std::size_t j = 0; j < 2 * alphas.size(); ++j) {
    const std::size_t i = j / 2;
    const double gamma = j % 2 == 0 ? summaries[i].gamma.mean() : spec.gamma;
    solves.push_back({{alphas[i], gamma}, spec.max_lead});
  }
  const auto markov_us =
      support::parallel_map(solves.size(), [&](std::size_t j) {
        return analysis::pool_absolute_revenue(
            analysis::compute_revenue(solves[j].params, rewards_config,
                                      spec.max_lead),
            scenario);
      }, analysis::cold_solve_costs(solves));

  // Headline: the measured-gamma curve against the Markov model evaluated
  // both at the measured gamma (does the aggregate theory predict the
  // network?) and at the spec's fixed gamma (what assuming gamma would get
  // wrong). Under faults, the clean-network baseline columns show the drift.
  ResultTable table;
  table.title = "Endogenous gamma on " + spec.net_topology + " / " +
                spec.net_latency + " (" + std::to_string(spec.net_nodes) +
                " honest nodes, relay=" + spec.net_relay +
                (faulted ? ", faults on" : "") + ")";
  table.columns = {Column::make_numeric("alpha", 3),
                   Column::make_numeric("gamma (net)"),
                   Column::make_numeric("gamma +-95%"),
                   Column::make_numeric("Us (net)"),
                   Column::make_numeric("Us markov@net gamma"),
                   Column::make_numeric("Us markov@fixed gamma"),
                   Column::make_numeric("Uh (net)"),
                   Column::make_numeric("uncle rate"),
                   Column::make_numeric("stale rate")};
  if (faulted) {
    table.columns.push_back(Column::make_numeric("gamma (clean)"));
    table.columns.push_back(Column::make_numeric("Us (clean)"));
  }
  double gamma_min = 1.0;
  double gamma_max = 0.0;
  std::uint64_t races = 0;
  std::uint64_t natural_forks = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t dropped = 0;
  std::uint64_t mining_lost = 0;
  std::uint64_t downtimes = 0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    const net::NetMultiRunSummary& s = summaries[i];
    const double gamma_net = s.gamma.mean();
    std::size_t c = 0;
    table.columns[c++].numbers.push_back(alphas[i]);
    table.columns[c++].numbers.push_back(gamma_net);
    table.columns[c++].numbers.push_back(s.gamma.ci_halfwidth());
    table.columns[c++].numbers.push_back(s.pool_revenue(scenario).mean());
    table.columns[c++].numbers.push_back(markov_us[2 * i]);
    table.columns[c++].numbers.push_back(markov_us[2 * i + 1]);
    table.columns[c++].numbers.push_back(s.honest_revenue(scenario).mean());
    table.columns[c++].numbers.push_back(s.uncle_rate.mean());
    table.columns[c++].numbers.push_back(s.stale_rate.mean());
    if (faulted) {
      table.columns[c++].numbers.push_back(clean[i].gamma.mean());
      table.columns[c++].numbers.push_back(
          clean[i].pool_revenue(scenario).mean());
    }
    gamma_min = std::min(gamma_min, gamma_net);
    gamma_max = std::max(gamma_max, gamma_net);
    races += s.race_samples;
    natural_forks += s.natural_forks;
    resyncs += s.resyncs;
    dropped += s.faults_messages_dropped;
    mining_lost += s.faults_mining_lost;
    downtimes += s.faults_downtime_events;
  }
  result.tables.push_back(std::move(table));

  // Propagation-distance breakdown, pooled across the alpha grid: nodes far
  // from the attacker should waste more blocks.
  ResultTable dist;
  dist.title = "Honest stale fraction by hop distance from the attacker";
  dist.columns = {Column::make_numeric("hops", 0),
                  Column::make_numeric("honest blocks", 0),
                  Column::make_numeric("stale fraction", 4)};
  std::vector<std::uint64_t> blocks_by_d;
  std::vector<std::uint64_t> stale_by_d;
  for (const auto& s : summaries) {
    if (blocks_by_d.size() < s.distance_blocks.size()) {
      blocks_by_d.resize(s.distance_blocks.size(), 0);
      stale_by_d.resize(s.distance_stale.size(), 0);
    }
    for (std::size_t d = 0; d < s.distance_blocks.size(); ++d) {
      blocks_by_d[d] += s.distance_blocks[d];
      stale_by_d[d] += s.distance_stale[d];
    }
  }
  for (std::size_t d = 1; d < blocks_by_d.size(); ++d) {
    dist.columns[0].numbers.push_back(static_cast<double>(d));
    dist.columns[1].numbers.push_back(static_cast<double>(blocks_by_d[d]));
    dist.columns[2].numbers.push_back(
        blocks_by_d[d] == 0 ? 0.0
                            : static_cast<double>(stale_by_d[d]) /
                                  static_cast<double>(blocks_by_d[d]));
  }
  result.tables.push_back(std::move(dist));

  std::ostringstream note;
  note << "Measured gamma spans [" << TextTable::num(gamma_min, 3) << ", "
       << TextTable::num(gamma_max, 3) << "] across the alpha grid ("
       << races << " races; the Markov model treats it as a free parameter).";
  result.notes.push_back(note.str());
  if (natural_forks + resyncs > 0) {
    std::ostringstream robustness;
    robustness << "Attack-model robustness: " << natural_forks
               << " honest latency fork(s) invisible to Algorithm 1, "
               << resyncs << " resync(s) after untracked overtakes.";
    result.notes.push_back(robustness.str());
  }
  if (faulted) {
    std::ostringstream faults_note;
    faults_note << "Fault injection: " << dropped << " message(s) dropped, "
                << mining_lost << " honest mining event(s) lost to downtime, "
                << downtimes << " crash(es); clean-network baseline in the "
                << "gamma/Us (clean) columns.";
    result.notes.push_back(faults_note.str());
  }
}

}  // namespace

ExperimentResult run(const ExperimentSpec& spec, const RunOptions& options) {
  // One span per experiment, named by kind: the outermost run-side scope in
  // a --trace file (cells/serve requests wrap it from the outside).
  support::trace::Span span("api.run " + std::string(to_string(spec.kind)));
  ExperimentResult result;
  result.spec = spec;
  result.spec_fingerprint = spec_fingerprint(spec);
  result.sweep_fingerprints = sweep_fingerprints(spec);
  result.checkpoint_enabled = options.checkpoint.enabled();
  // A sharded process computes only what it persists: a kind with no
  // checkpointed sweep is left whole to the merge pass.
  if (result.checkpoint_enabled &&
      !options.checkpoint.shard.is_whole_sweep() &&
      result.sweep_fingerprints.empty()) {
    result.skipped = true;
    return result;
  }

  switch (spec.kind) {
    case ExperimentKind::revenue:
      run_revenue(spec, options, result);
      break;
    case ExperimentKind::threshold:
      run_threshold(spec, options, result);
      break;
    case ExperimentKind::reward_design:
      run_reward_design(spec, result);
      break;
    case ExperimentKind::uncle_distance:
      run_uncle_distance(spec, options, result);
      break;
    case ExperimentKind::reward_table:
      run_reward_table(result);
      break;
    case ExperimentKind::stubborn_sim:
      run_stubborn_sim(spec, options, result);
      break;
    case ExperimentKind::timeline:
      run_timeline(spec, result);
      break;
    case ExperimentKind::retarget:
      run_retarget(spec, result);
      break;
    case ExperimentKind::delay:
      run_delay(spec, options, result);
      break;
    case ExperimentKind::net:
      run_net(spec, options, result);
      break;
  }
  return result;
}

std::vector<std::uint64_t> sweep_fingerprints(const ExperimentSpec& spec) {
  const int runs = simulation_runs(spec);
  std::vector<std::uint64_t> fps;
  switch (spec.kind) {
    case ExperimentKind::revenue:
      for (const auto& opt : revenue_sweeps(spec)) {
        const auto keys = analysis::revenue_curve_fingerprints(opt);
        fps.insert(fps.end(), keys.begin(), keys.end());
      }
      break;
    case ExperimentKind::threshold:
      fps.push_back(
          analysis::threshold_curve_fingerprint(threshold_options(spec)));
      break;
    case ExperimentKind::uncle_distance:
      for (const sim::SimConfig& config : uncle_distance_sweeps(spec)) {
        fps.push_back(sim::run_many_fingerprint(config, runs));
      }
      break;
    case ExperimentKind::stubborn_sim:
      for (const sim::StubbornSweep& s : stubborn_sweeps(spec)) {
        fps.push_back(
            sim::run_stubborn_many_fingerprint(s.config, s.strategy, runs));
      }
      break;
    case ExperimentKind::delay:
      for (const sim::DelaySimConfig& config : delay_sweeps(spec)) {
        fps.push_back(sim::run_delay_many_fingerprint(config, runs));
      }
      break;
    case ExperimentKind::net:
      for (const NetSweep& s : net_sweeps(spec)) {
        fps.push_back(net::run_net_many_fingerprint(s.config, runs));
      }
      break;
    case ExperimentKind::reward_design:
    case ExperimentKind::reward_table:
    case ExperimentKind::timeline:
    case ExperimentKind::retarget:
      break;  // no checkpoint-aware sweep behind these kinds
  }
  return fps;
}

}  // namespace ethsm::api
