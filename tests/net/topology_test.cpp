// Topology/latency grammar and generator: parsed specs, deterministic
// construction, connectivity, and the BFS hop distances the per-distance
// stale accounting buckets by.

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "net/topology.h"
#include "support/rng.h"

namespace ethsm::net {
namespace {

/// Undirected link count (every link is stored once per endpoint).
std::size_t num_links(const Topology& t) {
  std::size_t directed = 0;
  for (const auto& links : t.adjacency) directed += links.size();
  return directed / 2;
}

TEST(NetTopologySpec, ParsesEveryKind) {
  const std::pair<const char*, TopologySpec> cases[] = {
      {"complete", {TopologyKind::complete, 0.0}},
      {"star", {TopologyKind::star, 0.0}},
      {" ring ", {TopologyKind::ring, 0.0}},
      {"random:0.25", {TopologyKind::random_p, 0.25}},
      {"two_clusters:2000", {TopologyKind::two_clusters, 2000.0}},
  };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(parse_topology_spec(text), expected) << text;
  }
}

TEST(NetTopologySpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_topology_spec("mesh"), std::invalid_argument);
  EXPECT_THROW((void)parse_topology_spec("random:1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_topology_spec("random:x"), std::invalid_argument);
  EXPECT_THROW((void)parse_topology_spec("two_clusters:-1"),
               std::invalid_argument);
}

TEST(NetLatencySpec, ParsesEveryKind) {
  const std::pair<const char*, LatencySpec> cases[] = {
      {"fixed:0", {LatencyKind::fixed, 0.0, 0.0}},
      {"fixed:140", {LatencyKind::fixed, 140.0, 0.0}},
      {"uniform:20:80", {LatencyKind::uniform, 20.0, 80.0}},
      {"exp:500", {LatencyKind::exponential, 500.0, 0.0}},
  };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(parse_latency_spec(text), expected) << text;
  }
}

TEST(NetLatencySpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_latency_spec("50"), std::invalid_argument);
  EXPECT_THROW((void)parse_latency_spec("fixed:-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_latency_spec("uniform:80:20"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_latency_spec("uniform:20"), std::invalid_argument);
  EXPECT_THROW((void)parse_latency_spec("exp:-5"), std::invalid_argument);
}

TEST(NetLatencySpec, FixedSamplingNeverTouchesTheRng) {
  support::Xoshiro256 a(7);
  support::Xoshiro256 b(7);
  const LatencySpec fixed = parse_latency_spec("fixed:42");
  EXPECT_EQ(fixed.sample(a), 42.0);
  EXPECT_EQ(a(), b());  // identical stream position afterwards
}

TEST(NetTopologyBuild, CompleteLinksEveryPair) {
  support::Xoshiro256 rng(1);
  const Topology t =
      build_topology(parse_topology_spec("complete"), 5,
                     parse_latency_spec("fixed:10"), rng);
  ASSERT_EQ(t.num_nodes(), 6u);
  EXPECT_EQ(num_links(t), 15u);
  for (std::uint32_t v = 1; v < 6; ++v) {
    EXPECT_EQ(t.hop_from_attacker[v], 1u);
  }
}

TEST(NetTopologyBuild, StarRoutesEverythingThroughTheAttackerHub) {
  support::Xoshiro256 rng(1);
  const Topology t = build_topology(parse_topology_spec("star"), 8,
                                    parse_latency_spec("fixed:10"), rng);
  EXPECT_EQ(num_links(t), 8u);
  EXPECT_EQ(t.adjacency[0].size(), 8u);  // the hub
  for (std::uint32_t v = 1; v < 9; ++v) {
    EXPECT_EQ(t.adjacency[v].size(), 1u);
    EXPECT_EQ(t.adjacency[v][0].peer, 0u);
    EXPECT_EQ(t.hop_from_attacker[v], 1u);
  }
}

TEST(NetTopologyBuild, RingHopDistancesWrapBothWays) {
  support::Xoshiro256 rng(1);
  const Topology t = build_topology(parse_topology_spec("ring"), 7,
                                    parse_latency_spec("fixed:10"), rng);
  ASSERT_EQ(t.num_nodes(), 8u);
  EXPECT_EQ(num_links(t), 8u);
  EXPECT_EQ(t.hop_from_attacker[1], 1u);
  EXPECT_EQ(t.hop_from_attacker[7], 1u);
  EXPECT_EQ(t.hop_from_attacker[4], 4u);  // opposite side of the ring
}

TEST(NetTopologyBuild, RandomIsSeedDeterministicAndConnected) {
  const TopologySpec spec = parse_topology_spec("random:0.3");
  const LatencySpec lat = parse_latency_spec("fixed:10");
  support::Xoshiro256 rng_a(99);
  support::Xoshiro256 rng_b(99);
  const Topology a = build_topology(spec, 20, lat, rng_a);
  const Topology b = build_topology(spec, 20, lat, rng_b);
  EXPECT_EQ(num_links(a), num_links(b));
  EXPECT_TRUE(a.connected());
  EXPECT_GE(num_links(a), 21u);  // at least the connectivity ring
  for (std::uint32_t v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.adjacency[v].size(), b.adjacency[v].size());
    for (std::size_t i = 0; i < a.adjacency[v].size(); ++i) {
      EXPECT_EQ(a.adjacency[v][i].peer, b.adjacency[v][i].peer);
    }
  }
}

TEST(NetTopologyBuild, TwoClustersBridgeCarriesItsOwnLatency) {
  support::Xoshiro256 rng(5);
  const Topology t =
      build_topology(parse_topology_spec("two_clusters:2500"), 6,
                     parse_latency_spec("fixed:10"), rng);
  ASSERT_EQ(t.num_nodes(), 7u);
  // Cluster A = {0,1,2,3} complete (6 links), cluster B = {4,5,6} complete
  // (3 links), plus the 1-4 bridge.
  EXPECT_EQ(num_links(t), 10u);
  EXPECT_TRUE(t.connected());
  bool found_bridge = false;
  for (const Link& l : t.adjacency[1]) {
    if (l.peer == 4) {
      found_bridge = true;
      EXPECT_EQ(l.latency.kind, LatencyKind::fixed);
      EXPECT_EQ(l.latency.a, 2500.0);
    }
  }
  EXPECT_TRUE(found_bridge);
  // B-cluster nodes sit two hops out (attacker -> bridge head -> B).
  EXPECT_EQ(t.hop_from_attacker[4], 2u);
  EXPECT_EQ(t.hop_from_attacker[6], 3u);
}

}  // namespace
}  // namespace ethsm::net
