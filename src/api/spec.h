// Declarative experiment API: one spec type for every paper figure/table and
// every scenario the library can express (ROADMAP: "as many scenarios as you
// can imagine").
//
// An ExperimentSpec names a strategy/experiment kind, a reward schedule, a
// network model (gamma, or propagation delay + hash shares), grid axes and
// sim/Markov settings. Specs serialize to and from a flat key=value text
// format ("spec files"), so a new scenario -- a different uncle schedule, a
// stubborn variant, a delay distribution -- is ten lines of text instead of a
// new binary. api::run (runner.h) executes a spec by dispatching to the
// existing sweep drivers; api/presets.h registers the paper's figures/tables
// as named specs.
//
// Grammar (parse_spec):
//   * one `key = value` per line; blank lines ignored; `#` starts a comment
//   * numbers are plain C++ literals (seeds may be hex: 0x5e1f15)
//   * grids are comma lists (`0.1,0.2,0.3`) or ranges (`start:stop:step`,
//     endpoint included when it lands on the grid)
//   * reward schedules are compact strings: `byzantium`, `bitcoin`,
//     `flat:<ku>`, `flat:<ku>:<horizon>`, `table:<v1>,<v2>,...`
//   * strategies: `selfish` (Algorithm 1), or any `+`-combination of `lead`,
//     `fork`, `trail:<j>` (stubborn variants)
//   * multi-series experiments use indexed keys: `series.0.label = ...`,
//     `series.0.rewards = ...`, `series.0.strategy = ...`
// Unknown keys and malformed values raise SpecError -- the same validation
// backs the CLI's `--set key=value` overrides.

#ifndef ETHSM_API_SPEC_H
#define ETHSM_API_SPEC_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "miner/selfish_policy.h"
#include "rewards/reward_schedule.h"

namespace ethsm::api {

/// What a spec runs. Each kind maps onto one of the library's sweep drivers;
/// together they cover every paper figure and table plus the delay-network
/// substrate (see runner.cpp for the dispatch).
enum class ExperimentKind {
  revenue,         ///< revenue vs alpha, 1+ reward series (Fig. 8 / Fig. 9)
  threshold,       ///< profitability threshold vs gamma (Fig. 10)
  reward_design,   ///< thresholds across schedules at fixed gamma (Sec. VI)
  uncle_distance,  ///< uncle referencing-distance distribution (Table II)
  reward_table,    ///< the static Table I inventory
  stubborn_sim,    ///< stubborn-variant revenue vs alpha by simulation
  timeline,        ///< time-to-profit of the attack per alpha (extension)
  retarget,        ///< live difficulty retargeting trajectory (extension)
  delay,           ///< all-honest delay network sweep (uncle economics)
  net,             ///< P2P network simulation with endogenous gamma (src/net)
};

[[nodiscard]] std::string_view to_string(ExperimentKind kind) noexcept;
[[nodiscard]] ExperimentKind experiment_kind_from_string(std::string_view s);

/// Raised on any syntactic or semantic spec problem (unknown key, malformed
/// value, bad series indexing, out-of-range parameter).
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One series of a multi-series experiment: a labelled reward schedule
/// (revenue / reward_design kinds) or mining strategy (stubborn_sim kind).
struct SeriesSpec {
  std::string label;
  std::string rewards = "byzantium";
  std::string strategy = "selfish";

  [[nodiscard]] bool operator==(const SeriesSpec&) const = default;
};

/// The declarative experiment description. Fields not used by a spec's kind
/// are simply ignored by the runner; print_spec emits only the fields that
/// differ from this struct's defaults, so specs stay ten lines, not fifty.
struct ExperimentSpec {
  ExperimentKind kind = ExperimentKind::revenue;
  std::string title;

  // Network / attack model.
  double gamma = 0.5;    ///< honest hash fraction on the pool's branch
  int scenario = 1;      ///< difficulty scenario: 1 (pre-EIP100) or 2 (EIP100)
  double alpha = 0.3;    ///< pool share for single-alpha kinds (retarget)

  // Grid axes (empty = the kind's default grid, documented per kind).
  std::vector<double> alphas;     ///< revenue/stubborn_sim/timeline/uncle axes
  std::vector<double> gammas;     ///< threshold axis
  std::vector<double> ku_values;  ///< reward_design flat-Ku axis
  std::vector<double> delays;     ///< delay-network axis
  std::vector<SeriesSpec> series; ///< labelled schedules / strategies

  // Single-schedule kinds (threshold, uncle_distance, timeline, retarget,
  // delay, stubborn_sim) read this; multi-series kinds read series[i].rewards.
  std::string rewards = "byzantium";

  // Markov settings.
  int max_lead = 80;               ///< stationary truncation (curve kinds)
  double tolerance = 1e-6;         ///< threshold-search bisection tolerance
  double alpha_min = 1e-4;         ///< threshold-search bracket
  double alpha_max = 0.4999;
  int threshold_max_lead = 60;     ///< truncation inside threshold searches

  // Simulation settings.
  int sim_runs = 0;                ///< 0 = no Monte-Carlo cross-check
  std::uint64_t sim_blocks = 100'000;
  std::uint64_t sim_seed = 0x5e1f15ULL;

  // Delay-network model.
  std::vector<double> shares;      ///< hash shares; empty = 20 equal miners
  double delay = 0.15;             ///< propagation delay / block interval

  // P2P network model (`net` kind; grammars in net/topology.h, net/net_sim.h).
  std::string net_topology = "complete";  ///< complete|star|ring|random:p|...
  int net_nodes = 16;                     ///< honest miner nodes (attacker extra)
  std::string net_latency = "fixed:0";    ///< fixed:ms|uniform:lo:hi|exp:mean
  std::string net_relay = "push";         ///< push|announce relay forwarding

  // Seeded fault injection on the P2P network (grammars in net/faults.h).
  double net_fault_drop = 0.0;              ///< per-message loss prob [0, 1)
  std::string net_fault_churn = "off";      ///< off|<mean_up_ms>:<mean_down_ms>
  std::string net_fault_partition = "off";  ///< off|<start>:<heal>[:<cut>]
  std::string net_fault_eclipse = "off";    ///< off|<victim>:<delay>[:<drop>]

  // Retargeting model.
  std::uint64_t epoch_blocks = 500;
  int epochs = 60;

  // Timeline model.
  double phase1_blocks = 2016.0;   ///< stale-difficulty phase length

  [[nodiscard]] bool operator==(const ExperimentSpec&) const = default;
};

/// Ordered key=value pairs: the syntactic layer under a spec. Later entries
/// for the same key win (how --set overrides earlier values).
using SpecEntries = std::vector<std::pair<std::string, std::string>>;

/// Text -> entries. Syntax errors only (comment/`=` handling).
[[nodiscard]] SpecEntries parse_spec_entries(std::string_view text);

/// Entries -> typed spec. Unknown keys and malformed values raise SpecError.
[[nodiscard]] ExperimentSpec spec_from_entries(const SpecEntries& entries);

/// Text -> typed spec (parse_spec_entries + spec_from_entries).
[[nodiscard]] ExperimentSpec parse_spec(std::string_view text);

/// Canonical text form: only fields differing from the defaults, in a fixed
/// key order. parse_spec(print_spec(s)) == s for every valid spec (asserted
/// by tests/api/spec_test.cpp).
[[nodiscard]] std::string print_spec(const ExperimentSpec& spec);

/// Appends one `key=value` --set assignment; SpecError on a missing '='.
/// Unknown-key validation happens in spec_from_entries.
void apply_override(SpecEntries& entries, std::string_view assignment);

/// Compact reward-schedule strings (see grammar above) -> RewardConfig.
[[nodiscard]] rewards::RewardConfig parse_reward_spec(std::string_view text);

/// Strategy strings -> miner::Strategy ("selfish" = all knobs off, which is
/// exactly Algorithm 1). Each component may appear once: SpecError names a
/// repeated one.
[[nodiscard]] miner::Strategy parse_strategy_spec(std::string_view text);

}  // namespace ethsm::api

#endif  // ETHSM_API_SPEC_H
