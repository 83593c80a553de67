#include "net/faults.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "support/check.h"

namespace ethsm::net {

namespace {

[[noreturn]] void fail(std::string_view what, std::string_view text) {
  throw std::invalid_argument(std::string(what) + " '" + std::string(text) +
                              "'");
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

double parse_number(std::string_view whole, std::string_view part) {
  const std::string buffer(trim(part));
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (buffer.empty() || end != buffer.c_str() + buffer.size() ||
      !std::isfinite(value)) {
    fail("malformed number in fault spec", whole);
  }
  return value;
}

/// Splits "a:b[:c]" on ':'; returns the pieces in order.
std::vector<std::string_view> split_colons(std::string_view text) {
  std::vector<std::string_view> parts;
  while (true) {
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos) {
      parts.push_back(text);
      return parts;
    }
    parts.push_back(text.substr(0, colon));
    text.remove_prefix(colon + 1);
  }
}

PartitionCut parse_partition_cut(std::string_view whole, std::string_view s) {
  if (s == "auto") return PartitionCut::automatic;
  if (s == "bridge") return PartitionCut::bridge;
  if (s == "random") return PartitionCut::random_cut;
  if (s == "attacker") return PartitionCut::attacker;
  fail("unknown partition cut (want auto, bridge, random or attacker) in",
       whole);
}

}  // namespace

// ---------------------------------------------------------------- grammars --

ChurnSpec parse_churn_spec(std::string_view text) {
  const std::string_view trimmed = trim(text);
  ChurnSpec spec;
  if (trimmed == "off") return spec;
  const auto parts = split_colons(trimmed);
  if (parts.size() != 2) {
    fail("churn wants off or <mean_up_ms>:<mean_down_ms>, got", trimmed);
  }
  spec.mean_up_ms = parse_number(trimmed, parts[0]);
  spec.mean_down_ms = parse_number(trimmed, parts[1]);
  if (spec.mean_up_ms <= 0.0 || spec.mean_down_ms <= 0.0) {
    fail("churn means must be positive, got", trimmed);
  }
  return spec;
}

PartitionSpec parse_partition_spec(std::string_view text) {
  const std::string_view trimmed = trim(text);
  PartitionSpec spec;
  if (trimmed == "off") return spec;
  const auto parts = split_colons(trimmed);
  if (parts.size() != 2 && parts.size() != 3) {
    fail(
        "partition wants off or "
        "<start_ms>:<heal_ms>[:auto|bridge|random|attacker], got",
        trimmed);
  }
  spec.enabled = true;
  spec.start_ms = parse_number(trimmed, parts[0]);
  spec.heal_ms = parse_number(trimmed, parts[1]);
  if (parts.size() == 3) spec.cut = parse_partition_cut(trimmed, trim(parts[2]));
  if (spec.start_ms < 0.0 || spec.heal_ms < spec.start_ms) {
    fail("partition needs 0 <= start_ms <= heal_ms, got", trimmed);
  }
  return spec;
}

EclipseSpec parse_eclipse_spec(std::string_view text) {
  const std::string_view trimmed = trim(text);
  EclipseSpec spec;
  if (trimmed == "off") return spec;
  const auto parts = split_colons(trimmed);
  if (parts.size() != 2 && parts.size() != 3) {
    fail("eclipse wants off or <victim>:<delay_ms>[:<drop_p>], got", trimmed);
  }
  const double victim = parse_number(trimmed, parts[0]);
  if (victim < 1.0 || victim != static_cast<double>(
                                    static_cast<std::uint32_t>(victim))) {
    fail("eclipse victim must be an honest node id >= 1, got", trimmed);
  }
  spec.victim = static_cast<std::uint32_t>(victim);
  spec.delay_ms = parse_number(trimmed, parts[1]);
  if (parts.size() == 3) spec.drop = parse_number(trimmed, parts[2]);
  if (spec.delay_ms < 0.0) fail("eclipse delay must be >= 0, got", trimmed);
  if (spec.drop < 0.0 || spec.drop >= 1.0) {
    fail("eclipse drop probability must lie in [0, 1), got", trimmed);
  }
  return spec;
}

void FaultSpec::validate(std::uint32_t honest_nodes) const {
  ETHSM_EXPECTS(drop >= 0.0 && drop < 1.0,
                "net.faults.drop must lie in [0, 1)");
  ETHSM_EXPECTS(churn.mean_up_ms >= 0.0 && churn.mean_down_ms >= 0.0,
                "churn means must be non-negative");
  ETHSM_EXPECTS((churn.mean_up_ms > 0.0) == (churn.mean_down_ms > 0.0),
                "churn needs both means positive (or off)");
  if (partition.enabled) {
    ETHSM_EXPECTS(partition.start_ms >= 0.0 &&
                      partition.heal_ms >= partition.start_ms,
                  "partition needs 0 <= start_ms <= heal_ms");
  }
  if (eclipse.enabled()) {
    ETHSM_EXPECTS(eclipse.victim >= 1 && eclipse.victim <= honest_nodes,
                  "eclipse victim must be an honest node id in [1, nodes]");
    ETHSM_EXPECTS(eclipse.delay_ms >= 0.0, "eclipse delay must be >= 0");
    ETHSM_EXPECTS(eclipse.drop >= 0.0 && eclipse.drop < 1.0,
                  "eclipse drop probability must lie in [0, 1)");
  }
}

// ------------------------------------------------------------- FaultModel --

FaultModel::FaultModel(const FaultSpec& spec, std::uint32_t num_nodes,
                       TopologyKind topology, std::uint64_t seed)
    : spec_(spec),
      active_(spec.any()),
      eclipse_live_(eclipse_drops() || eclipse_delays()) {
  if (!active_) return;
  streams_.reserve(num_nodes);
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    streams_.emplace_back(
        support::derive_seed(seed ^ kFaultSeedDomain, v));
  }
  if (!spec_.partition.enabled) return;

  PartitionCut cut = spec_.partition.cut;
  if (cut == PartitionCut::automatic) {
    cut = topology == TopologyKind::two_clusters ? PartitionCut::bridge
                                                 : PartitionCut::random_cut;
  }
  side_.assign(num_nodes, 0);
  switch (cut) {
    case PartitionCut::automatic:  // resolved above
    case PartitionCut::bridge: {
      // Mirror build_topology's two_clusters split: cluster B starts at
      // 1 + honest_nodes / 2.
      const std::uint32_t b_start = 1 + (num_nodes - 1) / 2;
      for (std::uint32_t v = b_start; v < num_nodes; ++v) side_[v] = 1;
      break;
    }
    case PartitionCut::random_cut:
      // The attacker anchors side 0; every honest node flips its own coin
      // (a pure function of (seed, node), independent of topology).
      for (std::uint32_t v = 1; v < num_nodes; ++v) {
        side_[v] = stream(v).bernoulli(0.5) ? 1 : 0;
      }
      break;
    case PartitionCut::attacker:
      for (std::uint32_t v = 1; v < num_nodes; ++v) side_[v] = 1;
      break;
  }
}

bool FaultModel::eclipse_cuts(std::uint32_t dst, bool honest_block) {
  return honest_block && eclipse_drops() && dst == spec_.eclipse.victim &&
         stream(dst).bernoulli(spec_.eclipse.drop);
}

double FaultModel::eclipse_extra_delay(std::uint32_t dst,
                                       bool honest_block) const noexcept {
  return honest_block && eclipse_delays() && dst == spec_.eclipse.victim
             ? spec_.eclipse.delay_ms
             : 0.0;
}

double FaultModel::sample_uptime_ms(std::uint32_t node) {
  return stream(node).exponential(1.0 / spec_.churn.mean_up_ms);
}

double FaultModel::sample_downtime_ms(std::uint32_t node) {
  return stream(node).exponential(1.0 / spec_.churn.mean_down_ms);
}

}  // namespace ethsm::net
