// Differential lockdown of send-time settlement in the network engine
// (ctest -L kernel): net::run_net_simulation decides a gossip message's fate
// when it is sent whenever nothing can change it before it arrives, and must
// still equal the frozen engine that judges every message on arrival
// (reference_run_net_simulation, reference_engines.h) in every NetSimResult
// field -- events_processed and the fault drops included. The grid crosses
// five topologies, four latency models, both relay modes and six fault mixes;
// each cell runs several short seeded runs of varying length, so the end of
// the run (where a queued message is never popped) comes up again and again.
// One longer cell on the net_faults preset's network grows churned nodes'
// orphan buffers well past what the short cells reach.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/faults.h"
#include "net/net_sim.h"
#include "net/topology.h"
#include "reference_engines.h"
#include "support/checkpoint.h"
#include "support/rng.h"

namespace ethsm {
namespace {

using net::NetSimConfig;
using net::NetSimResult;

constexpr const char* kTopologies[] = {"complete", "star", "ring", "random:0.3",
                                       "two_clusters:400"};
constexpr const char* kLatencies[] = {"fixed:0", "fixed:140", "uniform:20:300",
                                      "exp:120"};
constexpr net::RelayMode kRelays[] = {net::RelayMode::push,
                                      net::RelayMode::announce};
constexpr int kSeedsPerCell = 3;
constexpr std::uint64_t kMaxBlocks = 300;

enum class FaultMix { none, drop, partition, eclipse, churn, all };

/// Fault settings sized for runs of at most kMaxBlocks blocks (~4,200 s of
/// simulated time): the partition and frequent churn toggles fall inside it.
net::FaultSpec faults_for(FaultMix mix) {
  net::FaultSpec f;
  const bool all = mix == FaultMix::all;
  if (mix == FaultMix::drop || all) f.drop = 0.1;
  if (mix == FaultMix::partition || all) {
    f.partition = net::parse_partition_spec("600000:2400000");
  }
  if (mix == FaultMix::eclipse || all) {
    f.eclipse = net::parse_eclipse_spec("2:1500:0.3");
  }
  if (mix == FaultMix::churn || all) {
    f.churn = net::parse_churn_spec("30000:8000");
  }
  return f;
}

/// Every field of a net result, as the checkpoint codec writes it.
std::vector<std::byte> encoded(const NetSimResult& r) {
  support::ByteWriter w;
  support::CheckpointCodec<NetSimResult>::encode(w, r);
  return w.bytes();
}

/// Runs production and reference on one config; returns the first
/// disagreement, or "" when the results are identical.
std::string compare_run(const NetSimConfig& config) {
  const NetSimResult got = net::run_net_simulation(config);
  const NetSimResult want = testing::reference_run_net_simulation(config);
  const auto field = [](const char* name, std::uint64_t a, std::uint64_t b) {
    return a == b ? std::string()
                  : std::string(name) + " " + std::to_string(a) +
                        " != " + std::to_string(b);
  };
  for (const std::string& diff :
       {field("events_processed", got.events_processed, want.events_processed),
        field("faults_messages_dropped", got.faults_messages_dropped,
              want.faults_messages_dropped),
        field("faults_mining_lost", got.faults_mining_lost,
              want.faults_mining_lost),
        field("faults_downtime_events", got.faults_downtime_events,
              want.faults_downtime_events),
        field("race_samples", got.race_samples, want.race_samples),
        field("race_pool_choices", got.race_pool_choices,
              want.race_pool_choices),
        field("natural_forks", got.natural_forks, want.natural_forks),
        field("resyncs", got.resyncs, want.resyncs)}) {
    if (!diff.empty()) return diff;
  }
  // The ledger, mined counts, duration and distance buckets.
  if (encoded(got) != encoded(want)) return "encoded results differ";
  return "";
}

/// Runs the whole topology x latency x relay grid under one fault mix.
void check_fault_mix(FaultMix mix) {
  int cell = 0;
  for (const char* topology : kTopologies) {
    for (const char* latency : kLatencies) {
      for (const net::RelayMode relay : kRelays) {
        for (int s = 0; s < kSeedsPerCell; ++s) {
          const std::uint64_t seed = support::derive_seed(
              0x5e7dfa7eULL + static_cast<std::uint64_t>(mix),
              static_cast<std::uint64_t>(cell * kSeedsPerCell + s));
          NetSimConfig config;
          config.alpha = 0.2 + 0.05 * static_cast<double>(seed % 5);
          config.honest_nodes = 4 + static_cast<std::uint32_t>(seed % 7);
          config.topology = net::parse_topology_spec(topology);
          config.latency = net::parse_latency_spec(latency);
          config.relay = relay;
          config.faults = faults_for(mix);
          config.num_blocks = 20 + (seed >> 8) % (kMaxBlocks - 19);
          config.seed = seed;
          const std::string diff = compare_run(config);
          EXPECT_EQ(diff, "")
              << topology << " / " << latency << " / "
              << (relay == net::RelayMode::push ? "push" : "announce") << ", "
              << config.honest_nodes
              << " honest nodes, " << config.num_blocks << " blocks, seed "
              << seed;
        }
        ++cell;
      }
    }
  }
}

TEST(KernelNetSendFate, CleanNetworkMatchesReference) {
  check_fault_mix(FaultMix::none);
}

TEST(KernelNetSendFate, LinkLossMatchesReference) {
  check_fault_mix(FaultMix::drop);
}

TEST(KernelNetSendFate, PartitionMatchesReference) {
  check_fault_mix(FaultMix::partition);
}

TEST(KernelNetSendFate, EclipseMatchesReference) {
  check_fault_mix(FaultMix::eclipse);
}

TEST(KernelNetSendFate, ChurnMatchesReference) {
  check_fault_mix(FaultMix::churn);
}

TEST(KernelNetSendFate, AllFaultsAtOnceMatchReference) {
  check_fault_mix(FaultMix::all);
}

TEST(KernelNetSendFate, ChurnedOrphanBuffersMatchReference) {
  // The net_faults network (12 honest nodes, fixed:140, 5% loss, churn
  // 70000:14000) at alpha 0.36, long enough for restarted nodes to buffer
  // many orphans while they walk their gaps back.
  for (const std::uint64_t seed : {0x0f0a11ULL, 0x0f0a12ULL}) {
    NetSimConfig config;
    config.alpha = 0.36;
    config.honest_nodes = 12;
    config.latency = net::parse_latency_spec("fixed:140");
    config.faults.drop = 0.05;
    config.faults.churn = net::parse_churn_spec("70000:14000");
    config.num_blocks = 3000;
    config.seed = seed;
    EXPECT_EQ(compare_run(config), "") << "seed " << seed;
  }
}

}  // namespace
}  // namespace ethsm
