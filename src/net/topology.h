// Seeded peer-to-peer topology generation for the network simulator.
//
// A topology is an undirected graph over `1 + honest_nodes` miner nodes.
// Node 0 is always the attacker. The generator grammar (spec key
// `net.topology`) covers the shapes the selfish-mining literature cares
// about:
//   complete                  every pair of nodes linked
//   star                      every honest node linked only to the attacker
//                             hub ("star-through-attacker": all honest-honest
//                             traffic relays through the adversary)
//   ring                      nodes on a cycle in index order
//   random:<p>                ring + Erdos-Renyi extras: every non-ring pair
//                             is linked with probability p (the ring keeps
//                             the graph connected without rejection sampling)
//   two_clusters:<bridge_ms>  two complete halves joined by ONE honest-honest
//                             bridge link with fixed latency <bridge_ms>
//
// Per-link latency (spec key `net.latency`) is a distribution sampled
// independently for every message crossing the link:
//   fixed:<ms>                constant
//   uniform:<lo>:<hi>         uniform in [lo, hi] milliseconds
//   exp:<mean>                exponential with the given mean
// Latencies are milliseconds against the Ethereum-like mean block interval
// (net_sim.h, kBlockIntervalMs = 14000), so `fixed:2000` reproduces the
// classic ~2 s / ~14 s propagation ratio.

#ifndef ETHSM_NET_TOPOLOGY_H
#define ETHSM_NET_TOPOLOGY_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "support/rng.h"

namespace ethsm::net {

enum class TopologyKind { complete, star, ring, random_p, two_clusters };

/// Parsed `net.topology` value. `param` is p for random:<p> and the bridge
/// latency (ms) for two_clusters:<bridge_ms>; unused otherwise.
struct TopologySpec {
  TopologyKind kind = TopologyKind::complete;
  double param = 0.0;

  [[nodiscard]] bool operator==(const TopologySpec&) const = default;
};

enum class LatencyKind { fixed, uniform, exponential };

/// Parsed `net.latency` value; a/b are (value), (lo, hi) or (mean) in ms.
struct LatencySpec {
  LatencyKind kind = LatencyKind::fixed;
  double a = 0.0;
  double b = 0.0;

  [[nodiscard]] bool operator==(const LatencySpec&) const = default;

  /// One latency draw in ms; deterministic given the rng state. fixed specs
  /// never touch the rng, so topologies mixing fixed and sampled links keep
  /// their draw order stable.
  [[nodiscard]] double sample(support::Xoshiro256& rng) const;
};

/// Grammar -> spec; throws std::invalid_argument with the offending text on
/// malformed input (the api layer rewraps this as a SpecError).
[[nodiscard]] TopologySpec parse_topology_spec(std::string_view text);
[[nodiscard]] LatencySpec parse_latency_spec(std::string_view text);

/// One directed adjacency record: messages from this node to `peer` sample
/// `latency` per crossing.
struct Link {
  std::uint32_t peer = 0;
  LatencySpec latency;
};

/// Built topology: adjacency lists (each undirected link appears in both
/// endpoints' lists, in deterministic order) plus hop distances from the
/// attacker.
struct Topology {
  std::vector<std::vector<Link>> adjacency;  ///< index = node id
  std::vector<std::uint32_t> hop_from_attacker;  ///< BFS link count

  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(adjacency.size());
  }
  [[nodiscard]] bool connected() const noexcept;
};

/// Deterministically builds the graph over `1 + honest_nodes` nodes (node 0 =
/// attacker). `rng` drives random:<p> link sampling only. `base_latency`
/// applies to every link except the two_clusters bridge, which uses
/// fixed:<bridge_ms> from the topology spec.
[[nodiscard]] Topology build_topology(const TopologySpec& spec,
                                      std::uint32_t honest_nodes,
                                      const LatencySpec& base_latency,
                                      support::Xoshiro256& rng);

}  // namespace ethsm::net

#endif  // ETHSM_NET_TOPOLOGY_H
