#include "net/topology.h"

#include <algorithm>
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
  if (buffer.empty() || end != buffer.c_str() + buffer.size()) {
    fail("malformed number in net spec", whole);
  }
  return value;
}

}  // namespace

double LatencySpec::sample(support::Xoshiro256& rng) const {
  switch (kind) {
    case LatencyKind::fixed:
      return a;
    case LatencyKind::uniform:
      return a + (b - a) * rng.uniform01();
    case LatencyKind::exponential:
      return a <= 0.0 ? 0.0 : rng.exponential(1.0 / a);
  }
  return a;  // unreachable
}

TopologySpec parse_topology_spec(std::string_view text) {
  const std::string_view trimmed = trim(text);
  TopologySpec spec;
  if (trimmed == "complete") {
    spec.kind = TopologyKind::complete;
  } else if (trimmed == "star") {
    spec.kind = TopologyKind::star;
  } else if (trimmed == "ring") {
    spec.kind = TopologyKind::ring;
  } else if (trimmed.rfind("random:", 0) == 0) {
    spec.kind = TopologyKind::random_p;
    spec.param = parse_number(trimmed, trimmed.substr(7));
    if (spec.param < 0.0 || spec.param > 1.0) {
      fail("random:<p> needs p in [0, 1], got", trimmed);
    }
  } else if (trimmed.rfind("two_clusters:", 0) == 0) {
    spec.kind = TopologyKind::two_clusters;
    spec.param = parse_number(trimmed, trimmed.substr(13));
    if (spec.param < 0.0) {
      fail("two_clusters:<bridge_ms> needs a non-negative latency, got",
           trimmed);
    }
  } else {
    fail(
        "unknown topology (want complete, star, ring, random:<p> or "
        "two_clusters:<bridge_ms>)",
        trimmed);
  }
  return spec;
}

LatencySpec parse_latency_spec(std::string_view text) {
  const std::string_view trimmed = trim(text);
  LatencySpec spec;
  if (trimmed.rfind("fixed:", 0) == 0) {
    spec.kind = LatencyKind::fixed;
    spec.a = parse_number(trimmed, trimmed.substr(6));
    if (spec.a < 0.0) fail("fixed:<ms> needs a non-negative latency, got", trimmed);
  } else if (trimmed.rfind("uniform:", 0) == 0) {
    spec.kind = LatencyKind::uniform;
    const std::string_view rest = trimmed.substr(8);
    const std::size_t colon = rest.find(':');
    if (colon == std::string_view::npos) {
      fail("uniform latency wants uniform:<lo>:<hi>, got", trimmed);
    }
    spec.a = parse_number(trimmed, rest.substr(0, colon));
    spec.b = parse_number(trimmed, rest.substr(colon + 1));
    if (spec.a < 0.0 || spec.b < spec.a) {
      fail("uniform:<lo>:<hi> needs 0 <= lo <= hi, got", trimmed);
    }
  } else if (trimmed.rfind("exp:", 0) == 0) {
    spec.kind = LatencyKind::exponential;
    spec.a = parse_number(trimmed, trimmed.substr(4));
    if (spec.a < 0.0) fail("exp:<mean> needs a non-negative mean, got", trimmed);
  } else {
    fail(
        "unknown latency model (want fixed:<ms>, uniform:<lo>:<hi> or "
        "exp:<mean>)",
        trimmed);
  }
  return spec;
}

bool Topology::connected() const noexcept {
  for (std::uint32_t d : hop_from_attacker) {
    if (d == static_cast<std::uint32_t>(-1)) return false;
  }
  return true;
}

Topology build_topology(const TopologySpec& spec, std::uint32_t honest_nodes,
                        const LatencySpec& base_latency,
                        support::Xoshiro256& rng) {
  ETHSM_EXPECTS(honest_nodes >= 1, "need at least one honest node");
  const std::uint32_t n = honest_nodes + 1;  // node 0 = attacker

  Topology topo;
  topo.adjacency.resize(n);
  auto link = [&topo](std::uint32_t u, std::uint32_t v,
                      const LatencySpec& latency) {
    topo.adjacency[u].push_back({v, latency});
    topo.adjacency[v].push_back({u, latency});
  };

  switch (spec.kind) {
    case TopologyKind::complete:
      for (std::uint32_t u = 0; u < n; ++u) {
        for (std::uint32_t v = u + 1; v < n; ++v) link(u, v, base_latency);
      }
      break;
    case TopologyKind::star:
      // The attacker is the hub: every honest-honest path relays through it.
      for (std::uint32_t v = 1; v < n; ++v) link(0, v, base_latency);
      break;
    case TopologyKind::ring:
      for (std::uint32_t u = 0; u < n; ++u) link(u, (u + 1) % n, base_latency);
      break;
    case TopologyKind::random_p:
      // Ring + Erdos-Renyi extras: the ring guarantees connectivity without
      // rejection sampling, p adds density. Pair order is fixed so the link
      // set is a pure function of (spec, honest_nodes, rng state).
      for (std::uint32_t u = 0; u < n; ++u) link(u, (u + 1) % n, base_latency);
      for (std::uint32_t u = 0; u < n; ++u) {
        for (std::uint32_t v = u + 1; v < n; ++v) {
          const bool ring_edge = (v == u + 1) || (u == 0 && v == n - 1);
          if (ring_edge) continue;
          if (rng.bernoulli(spec.param)) link(u, v, base_latency);
        }
      }
      break;
    case TopologyKind::two_clusters: {
      // Cluster A: attacker + first half of the honest nodes; cluster B: the
      // rest. Each cluster is complete; one honest-honest bridge (first
      // honest node of each cluster) carries fixed:<bridge_ms> latency.
      const std::uint32_t b_start = 1 + honest_nodes / 2;
      ETHSM_EXPECTS(b_start < n && b_start >= 2,
                    "two_clusters needs at least 2 honest nodes");
      for (std::uint32_t u = 0; u < b_start; ++u) {
        for (std::uint32_t v = u + 1; v < b_start; ++v) {
          link(u, v, base_latency);
        }
      }
      for (std::uint32_t u = b_start; u < n; ++u) {
        for (std::uint32_t v = u + 1; v < n; ++v) link(u, v, base_latency);
      }
      LatencySpec bridge;
      bridge.kind = LatencyKind::fixed;
      bridge.a = spec.param;
      link(1, b_start, bridge);
      break;
    }
  }

  // BFS hop distances from the attacker (propagation-distance buckets for the
  // per-distance stale accounting).
  topo.hop_from_attacker.assign(n, static_cast<std::uint32_t>(-1));
  topo.hop_from_attacker[0] = 0;
  std::vector<std::uint32_t> frontier{0};
  std::vector<std::uint32_t> next;
  while (!frontier.empty()) {
    next.clear();
    for (std::uint32_t u : frontier) {
      for (const Link& l : topo.adjacency[u]) {
        if (topo.hop_from_attacker[l.peer] != static_cast<std::uint32_t>(-1)) {
          continue;
        }
        topo.hop_from_attacker[l.peer] = topo.hop_from_attacker[u] + 1;
        next.push_back(l.peer);
      }
    }
    frontier.swap(next);
  }
  ETHSM_ENSURES(topo.connected(), "generated topology is connected");
  return topo;
}

}  // namespace ethsm::net
