#include "api/spec.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <type_traits>
#include <variant>

#include "net/net_sim.h"
#include "net/topology.h"
#include "support/math_util.h"

namespace ethsm::api {

namespace {

constexpr std::array<std::pair<ExperimentKind, std::string_view>, 10> kKindNames{
    {{ExperimentKind::revenue, "revenue"},
     {ExperimentKind::threshold, "threshold"},
     {ExperimentKind::reward_design, "reward_design"},
     {ExperimentKind::uncle_distance, "uncle_distance"},
     {ExperimentKind::reward_table, "reward_table"},
     {ExperimentKind::stubborn_sim, "stubborn_sim"},
     {ExperimentKind::timeline, "timeline"},
     {ExperimentKind::retarget, "retarget"},
     {ExperimentKind::delay, "delay"},
     {ExperimentKind::net, "net"}}};

[[noreturn]] void fail(const std::string& message) { throw SpecError(message); }

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

double parse_double(std::string_view key, std::string_view text) {
  const std::string buffer(trim(text));
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (buffer.empty() || end != buffer.c_str() + buffer.size()) {
    fail("spec key '" + std::string(key) + "': malformed number '" + buffer +
         "'");
  }
  return value;
}

int parse_int(std::string_view key, std::string_view text) {
  const std::string buffer(trim(text));
  int value = 0;
  const auto r =
      std::from_chars(buffer.data(), buffer.data() + buffer.size(), value);
  if (r.ec != std::errc() || r.ptr != buffer.data() + buffer.size()) {
    fail("spec key '" + std::string(key) + "': malformed integer '" + buffer +
         "'");
  }
  return value;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Comma list or `start:stop:step` range (value_i = start + i*step, endpoint
/// included when it lands within step/2 of the grid).
std::vector<double> parse_grid(std::string_view key, std::string_view text) {
  std::vector<double> grid;
  const std::string_view trimmed = trim(text);
  if (trimmed.empty()) return grid;
  if (trimmed.find(':') != std::string_view::npos) {
    const auto parts = split(trimmed, ':');
    if (parts.size() != 3) {
      fail("spec key '" + std::string(key) +
           "': range must be start:stop:step");
    }
    const double start = parse_double(key, parts[0]);
    const double stop = parse_double(key, parts[1]);
    const double step = parse_double(key, parts[2]);
    if (step <= 0.0 || stop < start) {
      fail("spec key '" + std::string(key) +
           "': range needs step > 0 and stop >= start");
    }
    for (int i = 0;; ++i) {
      const double value = start + i * step;
      if (value > stop + step / 2.0) break;
      grid.push_back(value);
      if (i > 1'000'000) {
        fail("spec key '" + std::string(key) + "': range too long");
      }
    }
    return grid;
  }
  for (std::string_view part : split(trimmed, ',')) {
    grid.push_back(parse_double(key, part));
  }
  return grid;
}

/// Shortest decimal form that parses back to exactly the same double, so
/// print -> parse round-trips bitwise (shared with the net grammars).
std::string print_value(double value) {
  return support::print_shortest_double(value);
}

std::string print_value(const std::vector<double>& grid) {
  std::string out;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i) out += ',';
    out += print_value(grid[i]);
  }
  return out;
}

std::string print_value(int value) { return std::to_string(value); }
std::string print_value(std::uint64_t value) { return std::to_string(value); }
std::string print_value(const std::string& value) { return value; }

std::string print_hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// series.<index>.<field> keys; returns false for non-series keys.
bool apply_series_key(ExperimentSpec& spec, std::string_view key,
                      std::string_view value) {
  constexpr std::string_view prefix = "series.";
  if (key.substr(0, prefix.size()) != prefix) return false;
  const std::string_view rest = key.substr(prefix.size());
  const std::size_t dot = rest.find('.');
  if (dot == std::string_view::npos) {
    fail("spec key '" + std::string(key) +
         "': series keys are series.<index>.<field>");
  }
  const int index = parse_int(key, rest.substr(0, dot));
  if (index < 0 || index >= 1000) {
    fail("spec key '" + std::string(key) + "': series index out of range");
  }
  if (spec.series.size() <= static_cast<std::size_t>(index)) {
    spec.series.resize(static_cast<std::size_t>(index) + 1);
  }
  SeriesSpec& series = spec.series[static_cast<std::size_t>(index)];
  const std::string_view field = rest.substr(dot + 1);
  if (field == "label") {
    series.label = std::string(trim(value));
  } else if (field == "rewards") {
    series.rewards = std::string(trim(value));
    (void)parse_reward_spec(series.rewards);  // validate eagerly
  } else if (field == "strategy") {
    series.strategy = std::string(trim(value));
    (void)parse_strategy_spec(series.strategy);
  } else {
    fail("unknown series field '" + std::string(field) + "' in spec key '" +
         std::string(key) + "'");
  }
  return true;
}

// Value grammars of the table's member types, the inverses of print_value.
void parse_value(std::string_view key, std::string_view text, double& out) {
  out = parse_double(key, text);
}

void parse_value(std::string_view key, std::string_view text, int& out) {
  out = parse_int(key, text);
}

void parse_value(std::string_view key, std::string_view text,
                 std::uint64_t& out) {
  const std::string buffer(trim(text));
  char* end = nullptr;
  const unsigned long long value = std::strtoull(buffer.c_str(), &end, 0);
  // strtoull silently wraps "-5" to a huge value; a negative count/seed is a
  // typo, not a 2^64-block simulation.
  if (buffer.empty() || end != buffer.c_str() + buffer.size() ||
      buffer.front() == '-') {
    fail("spec key '" + std::string(key) + "': malformed integer '" + buffer +
         "'");
  }
  out = static_cast<std::uint64_t>(value);
}

void parse_value(std::string_view key, std::string_view text,
                 std::vector<double>& out) {
  out = parse_grid(key, text);
}

void parse_value(std::string_view /*key*/, std::string_view text,
                 std::string& out) {
  out = std::string(trim(text));
}

/// Eager validator of a string key's own grammar; raises SpecError.
using Check = void (*)(std::string_view key, std::string_view value);

void check_rewards(std::string_view /*key*/, std::string_view value) {
  (void)parse_reward_spec(value);
}

/// The net grammars report a malformed value as std::invalid_argument; it is
/// rewrapped here, once, as a SpecError naming the key.
template <auto parse>
void check_net(std::string_view key, std::string_view value) {
  try {
    (void)parse(value);
  } catch (const std::invalid_argument& e) {
    fail("spec key '" + std::string(key) + "': " + e.what());
  }
}

template <typename T>
using Member = T ExperimentSpec::*;

/// One spec key: its name and the ExperimentSpec member it sets. The
/// member's type picks the value grammar (number, integer, unsigned, grid or
/// free string); `check` validates a string with a grammar of its own, and
/// `hex` prints an unsigned as 0x... (seeds).
struct KeyRow {
  std::string_view key;
  std::variant<Member<double>, Member<int>, Member<std::uint64_t>,
               Member<std::vector<double>>, Member<std::string>>
      member;
  Check check = nullptr;
  bool hex = false;
};

/// Every key but `kind` and `series.N.*`, in print order: print_spec's bytes
/// -- hence spec_fingerprint and every checkpoint key -- follow this order.
constexpr std::array<KeyRow, 30> kKeys{{
    {"title", &ExperimentSpec::title},
    {"gamma", &ExperimentSpec::gamma},
    {"scenario", &ExperimentSpec::scenario},
    {"alpha", &ExperimentSpec::alpha},
    {"alphas", &ExperimentSpec::alphas},
    {"gammas", &ExperimentSpec::gammas},
    {"ku_values", &ExperimentSpec::ku_values},
    {"delays", &ExperimentSpec::delays},
    {"rewards", &ExperimentSpec::rewards, check_rewards},
    {"max_lead", &ExperimentSpec::max_lead},
    {"tolerance", &ExperimentSpec::tolerance},
    {"alpha_min", &ExperimentSpec::alpha_min},
    {"alpha_max", &ExperimentSpec::alpha_max},
    {"threshold_max_lead", &ExperimentSpec::threshold_max_lead},
    {"sim_runs", &ExperimentSpec::sim_runs},
    {"sim_blocks", &ExperimentSpec::sim_blocks},
    {"sim_seed", &ExperimentSpec::sim_seed, nullptr, true},
    {"shares", &ExperimentSpec::shares},
    {"delay", &ExperimentSpec::delay},
    {"net.topology", &ExperimentSpec::net_topology,
     check_net<net::parse_topology_spec>},
    {"net.nodes", &ExperimentSpec::net_nodes},
    {"net.latency", &ExperimentSpec::net_latency,
     check_net<net::parse_latency_spec>},
    {"net.relay", &ExperimentSpec::net_relay,
     check_net<net::relay_mode_from_string>},
    {"net.faults.drop", &ExperimentSpec::net_fault_drop},
    {"net.faults.churn", &ExperimentSpec::net_fault_churn,
     check_net<net::parse_churn_spec>},
    {"net.faults.partition", &ExperimentSpec::net_fault_partition,
     check_net<net::parse_partition_spec>},
    {"net.faults.eclipse", &ExperimentSpec::net_fault_eclipse,
     check_net<net::parse_eclipse_spec>},
    {"epoch_blocks", &ExperimentSpec::epoch_blocks},
    {"epochs", &ExperimentSpec::epochs},
    {"phase1_blocks", &ExperimentSpec::phase1_blocks},
}};

const KeyRow* find_key(std::string_view key) {
  for (const KeyRow& row : kKeys) {
    if (row.key == key) return &row;
  }
  return nullptr;
}

}  // namespace

std::string_view to_string(ExperimentKind kind) noexcept {
  for (const auto& [k, name] : kKindNames) {
    if (k == kind) return name;
  }
  return "unknown";
}

ExperimentKind experiment_kind_from_string(std::string_view s) {
  for (const auto& [kind, name] : kKindNames) {
    if (name == s) return kind;
  }
  std::string known;
  for (const auto& [kind, name] : kKindNames) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  fail("unknown experiment kind '" + std::string(s) + "' (known: " + known +
       ")");
}

SpecEntries parse_spec_entries(std::string_view text) {
  SpecEntries entries;
  std::size_t line_number = 0;
  for (std::string_view line : split(text, '\n')) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail("spec line " + std::to_string(line_number) +
           ": expected 'key = value', got '" + std::string(line) + "'");
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) {
      fail("spec line " + std::to_string(line_number) + ": empty key");
    }
    entries.emplace_back(std::string(key), std::string(value));
  }
  return entries;
}

ExperimentSpec spec_from_entries(const SpecEntries& entries) {
  ExperimentSpec spec;
  for (const auto& [key, value] : entries) {
    if (key == "kind") {
      spec.kind = experiment_kind_from_string(trim(value));
    } else if (const KeyRow* row = find_key(key)) {
      std::visit([&](auto member) { parse_value(key, value, spec.*member); },
                 row->member);
      if (row->check != nullptr) row->check(key, trim(value));
    } else if (!apply_series_key(spec, key, value)) {
      // A spec file carrying study grammar is the single most common mix-up
      // -- point at the right subcommand instead of a bare unknown-key error.
      if (key == "study" || key.rfind("variant.", 0) == 0 ||
          key.rfind("matrix.", 0) == 0 || key.rfind("quick.", 0) == 0) {
        fail("spec key '" + key +
             "' is study grammar (study/variant./matrix./quick.): this file "
             "is a study, not a spec -- run it with `ethsm run --study FILE` "
             "or inspect the expansion with `ethsm expand FILE`");
      }
      fail("unknown spec key '" + key + "'");
    }
  }

  // Semantic validation shared by files, presets and --set overrides.
  if (spec.gamma < 0.0 || spec.gamma > 1.0) fail("gamma must lie in [0, 1]");
  if (spec.scenario != 1 && spec.scenario != 2) {
    fail("scenario must be 1 (regular rate) or 2 (regular+uncle rate)");
  }
  if (spec.alpha <= 0.0 || spec.alpha >= 1.0) fail("alpha must lie in (0, 1)");
  if (spec.max_lead < 1) fail("max_lead must be >= 1");
  if (spec.threshold_max_lead < 1) fail("threshold_max_lead must be >= 1");
  if (spec.tolerance <= 0.0) fail("tolerance must be > 0");
  if (spec.sim_runs < 0) fail("sim_runs must be >= 0");
  if (spec.sim_blocks == 0) fail("sim_blocks must be >= 1");
  if (spec.epochs < 1) fail("epochs must be >= 1");
  if (spec.epoch_blocks == 0) fail("epoch_blocks must be >= 1");
  if (spec.net_nodes < 1 || spec.net_nodes > 512) {
    fail("net.nodes must lie in [1, 512]");
  }
  if (spec.net_fault_drop < 0.0 || spec.net_fault_drop >= 1.0) {
    fail("net.faults.drop must lie in [0, 1)");
  }
  {
    const net::EclipseSpec eclipse =
        net::parse_eclipse_spec(spec.net_fault_eclipse);
    if (eclipse.enabled() &&
        eclipse.victim > static_cast<std::uint32_t>(spec.net_nodes)) {
      fail("net.faults.eclipse victim exceeds net.nodes");
    }
  }
  return spec;
}

ExperimentSpec parse_spec(std::string_view text) {
  return spec_from_entries(parse_spec_entries(text));
}

std::string print_spec(const ExperimentSpec& spec) {
  const ExperimentSpec defaults;
  std::ostringstream os;
  os << "kind = " << to_string(spec.kind) << "\n";
  auto put = [&os](std::string_view key, const std::string& value) {
    // Free-text values must survive the line-oriented grammar: '#' starts a
    // comment and '\n' a new entry, so a value containing either cannot
    // round-trip. Refuse loudly instead of printing a spec that re-parses
    // differently (the parse(print(s)) == s contract).
    if (value.find('#') != std::string::npos ||
        value.find('\n') != std::string::npos) {
      fail("spec key '" + std::string(key) +
           "': value contains '#' or a newline and cannot be serialized");
    }
    os << key << " = " << value << "\n";
  };
  for (const KeyRow& row : kKeys) {
    std::visit(
        [&](auto member) {
          const auto& value = spec.*member;
          if (value == defaults.*member) return;
          if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                       std::uint64_t>) {
            if (row.hex) return put(row.key, print_hex(value));
          }
          put(row.key, print_value(value));
        },
        row.member);
  }
  for (std::size_t i = 0; i < spec.series.size(); ++i) {
    const SeriesSpec& series = spec.series[i];
    const SeriesSpec series_defaults;
    const std::string prefix = "series." + std::to_string(i) + ".";
    put(prefix + "label", series.label);
    if (series.rewards != series_defaults.rewards) {
      put(prefix + "rewards", series.rewards);
    }
    if (series.strategy != series_defaults.strategy) {
      put(prefix + "strategy", series.strategy);
    }
  }
  return os.str();
}

void apply_override(SpecEntries& entries, std::string_view assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string_view::npos) {
    fail("--set expects key=value, got '" + std::string(assignment) + "'");
  }
  const std::string_view key = trim(assignment.substr(0, eq));
  if (key.empty()) fail("--set expects key=value with a non-empty key");
  entries.emplace_back(std::string(key),
                       std::string(trim(assignment.substr(eq + 1))));
}

rewards::RewardConfig parse_reward_spec(std::string_view text) {
  const std::string_view trimmed = trim(text);
  if (trimmed == "byzantium") return rewards::RewardConfig::ethereum_byzantium();
  if (trimmed == "bitcoin") return rewards::RewardConfig::bitcoin();
  if (trimmed.rfind("flat:", 0) == 0) {
    const auto parts = split(trimmed.substr(5), ':');
    if (parts.size() > 2) {
      fail("reward spec '" + std::string(trimmed) +
           "': want flat:<ku> or flat:<ku>:<horizon>");
    }
    const double ku = parse_double("rewards", parts[0]);
    const int horizon = parts.size() == 2 ? parse_int("rewards", parts[1])
                                          : rewards::kMaxUncleDistance;
    if (ku < 0.0) fail("reward spec: flat Ku must be >= 0");
    if (horizon < 1) fail("reward spec: flat horizon must be >= 1");
    return rewards::RewardConfig::ethereum_flat(ku, horizon);
  }
  if (trimmed.rfind("table:", 0) == 0) {
    const std::vector<double> values =
        parse_grid("rewards", trimmed.substr(6));
    if (values.empty()) fail("reward spec: table needs at least one value");
    for (double v : values) {
      if (v < 0.0) fail("reward spec: table values must be >= 0");
    }
    rewards::RewardConfig config;
    config.uncle = std::make_shared<rewards::TableUncleSchedule>(
        values, "Ku table " + std::string(trimmed.substr(6)));
    config.nephew = rewards::NephewRewardSchedule{
        rewards::kEthereumNephewReward, static_cast<int>(values.size())};
    return config;
  }
  fail("unknown reward spec '" + std::string(trimmed) +
       "' (want byzantium, bitcoin, flat:<ku>[:<horizon>] or "
       "table:<v1>,<v2>,...)");
}

miner::Strategy parse_strategy_spec(std::string_view text) {
  miner::Strategy strategy;
  const std::string_view trimmed = trim(text);
  if (trimmed == "selfish") return strategy;  // Algorithm 1: all knobs off
  const auto repeated = [](std::string_view name) {
    fail("strategy spec: repeated component '" + std::string(name) + "'");
  };
  for (std::string_view part : split(trimmed, '+')) {
    part = trim(part);
    if (part == "lead") {
      if (strategy.lead) repeated("lead");
      strategy.lead = true;
    } else if (part == "fork") {
      if (strategy.fork) repeated("fork");
      strategy.fork = true;
    } else if (part.rfind("trail:", 0) == 0) {
      if (strategy.trail > 0) repeated("trail");
      strategy.trail = parse_int("strategy", part.substr(6));
      if (strategy.trail < 1) fail("strategy spec: trail:<j> needs j >= 1");
    } else {
      fail("unknown strategy component '" + std::string(part) +
           "' (want selfish, lead, fork, trail:<j> or a +combination)");
    }
  }
  return strategy;
}

}  // namespace ethsm::api
