// Golden pins for single network runs: exact event counts, race samples,
// fault drops and ledger totals, recorded from the single-heap event queue.
// The determinism suites only compare the engine with itself (across thread
// counts, across resume); these catch any change to the event order itself,
// e.g. from a queue rewrite or a reordered send. Suites are named Net* so
// `ctest -L net` runs them.

#include <gtest/gtest.h>

#include <cstdint>

#include "chain/block.h"
#include "net/net_sim.h"
#include "support/rng.h"

namespace ethsm::net {
namespace {

using chain::MinerClass;

struct ClassPin {
  std::uint64_t regular;
  std::uint64_t referenced_uncle;
  std::uint64_t stale;
  double static_reward;
  double uncle_reward;
  double nephew_reward;
};

struct RunPin {
  std::uint64_t events_processed;
  std::uint64_t race_samples;
  std::uint64_t race_pool_choices;
  std::uint64_t faults_messages_dropped;
  ClassPin honest;
  ClassPin selfish;
};

void expect_class(const chain::LedgerResult& ledger, MinerClass c,
                  const ClassPin& pin) {
  const auto& fate = ledger.fate_of(c);
  const auto& reward = ledger.of(c);
  EXPECT_EQ(fate.regular, pin.regular) << to_string(c);
  EXPECT_EQ(fate.referenced_uncle, pin.referenced_uncle) << to_string(c);
  EXPECT_EQ(fate.stale, pin.stale) << to_string(c);
  // Rewards are sums of dyadic fractions of Ks: exact in binary.
  EXPECT_EQ(reward.static_reward, pin.static_reward) << to_string(c);
  EXPECT_EQ(reward.uncle_reward, pin.uncle_reward) << to_string(c);
  EXPECT_EQ(reward.nephew_reward, pin.nephew_reward) << to_string(c);
}

void expect_run(const NetSimConfig& config, const RunPin& pin) {
  const NetSimResult r = run_net_simulation(config);
  EXPECT_EQ(r.events_processed, pin.events_processed);
  EXPECT_EQ(r.race_samples, pin.race_samples);
  EXPECT_EQ(r.race_pool_choices, pin.race_pool_choices);
  EXPECT_EQ(r.faults_messages_dropped, pin.faults_messages_dropped);
  expect_class(r.sim.ledger, MinerClass::honest, pin.honest);
  expect_class(r.sim.ledger, MinerClass::selfish, pin.selfish);
}

TEST(NetGolden, NetFaultsCellRunIsPinned) {
  // The first run of the `net_faults --quick` cell at alpha 0.3: 12 honest
  // nodes on a complete graph, fixed:140 links, 5% drop, churn 70000:14000.
  NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 12;
  config.latency = parse_latency_spec("fixed:140");
  config.faults.drop = 0.05;
  config.faults.churn = parse_churn_spec("70000:14000");
  config.num_blocks = 6'000;
  config.seed = support::derive_seed(0x9e7ca57ULL, 0);
  expect_run(config, {955'000, 747, 24, 155'969,
                      {2201, 808, 510, 2201.0, 591.75, 21.625},
                      {1428, 315, 18, 1428.0, 272.75, 13.46875}});
}

TEST(NetGolden, CleanUniformLatencyRunIsPinned) {
  // Random latency: roughly half the gossip arrives out of send order.
  NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 16;
  config.latency = parse_latency_spec("uniform:50:400");
  config.num_blocks = 4'000;
  config.seed = 0x5eedf00dULL;
  expect_run(config, {1'154'716, 465, 9, 0,
                      {2317, 398, 141, 2317.0, 312.375, 16.25},
                      {819, 314, 11, 819.0, 273.5, 6.0}});
}

TEST(NetGolden, TwoClustersWithEclipseRunIsPinned) {
  // A slow 2 s bridge plus an eclipsed victim whose honest traffic arrives
  // 1.5 s late: in-order gossip mixed with delayed, out-of-order sends.
  NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 16;
  config.topology = parse_topology_spec("two_clusters:2000");
  config.latency = parse_latency_spec("fixed:100");
  config.faults.eclipse = parse_eclipse_spec("3:1500:0.2");
  config.num_blocks = 4'000;
  config.seed = 0x5eedf00dULL;
  expect_run(config, {516'328, 526, 73, 4'657,
                      {2014, 561, 208, 2014.0, 444.375, 18.34375},
                      {888, 283, 46, 888.0, 244.375, 8.03125}});
}

// The three pins below were recorded from the engine that decided every
// gossip message's fate on arrival, before send-time settlement: between
// them they cover announce relay, a partition and a star hub, which the
// pins above do not.

TEST(NetGolden, AnnounceRelayExpLatencyRunIsPinned) {
  // Every relay restarts the three-crossing handshake over exponential
  // links: many requests, and repeat announces that arrive out of order.
  NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 16;
  config.latency = parse_latency_spec("exp:120");
  config.relay = RelayMode::announce;
  config.num_blocks = 4'000;
  config.seed = 0x5eedf00dULL;
  expect_run(config, {1'155'712, 491, 56, 0,
                      {2135, 456, 165, 2135.0, 358.0, 15.84375},
                      {952, 287, 5, 952.0, 249.375, 7.375}});
}

TEST(NetGolden, PartitionWithUniformLatencyRunIsPinned) {
  // A random cut of the complete graph for a quarter of the run, healing at
  // 28,000 s: the two sides grow separate chains, then re-sync.
  NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 16;
  config.latency = parse_latency_spec("uniform:50:400");
  config.faults.partition = parse_partition_spec("14000000:28000000");
  config.num_blocks = 4'000;
  config.seed = 0x5eedf00dULL;
  expect_run(config, {1'614'785, 575, 11, 55'080,
                      {2170, 302, 333, 2170.0, 234.125, 12.75},
                      {633, 255, 307, 633.0, 221.75, 4.65625}});
}

TEST(NetGolden, StarAtFixedLatencyRunIsPinned) {
  // Every honest block reaches the other honest nodes through the
  // attacker's hub, two fixed:50 crossings: races are frequent and the
  // attacker almost never wins them (3 of 499).
  NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 16;
  config.topology = parse_topology_spec("star");
  config.latency = parse_latency_spec("fixed:50");
  config.num_blocks = 4'000;
  config.seed = 0x5eedf00dULL;
  expect_run(config, {112'492, 499, 3, 0,
                      {2235, 393, 155, 2235.0, 304.5, 16.21875},
                      {877, 337, 3, 877.0, 294.625, 6.59375}});
}

}  // namespace
}  // namespace ethsm::net
