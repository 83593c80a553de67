// Network-simulator correctness: the zero-latency equivalence suite (the
// analytic anchors where the endogenous gamma is known), determinism across
// thread counts, and checkpointed interrupt+resume bitwise identity.
//
// Anchors (ISSUE acceptance criteria):
//   * complete graph, 0 ms links: every race resolves within one instant and
//     the attacker rushes its match everywhere, so gamma = (N-1)/N -> 1 and
//     revenue must match the fixed-gamma Markov model evaluated at exactly
//     (N-1)/N within Monte-Carlo tolerance;
//   * star through the attacker at positive latency: the hub's relay of the
//     honest block beats the attacker's fresh-block handshake by two
//     crossings at every leaf, so gamma -> 0 and revenue must match the
//     gamma = 0 Markov prediction.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/absolute_revenue.h"
#include "analysis/revenue.h"
#include "net/net_sim.h"
#include "support/parallel.h"
#include "support/temp_dir.h"
#include "support/thread_pool.h"

namespace ethsm::net {
namespace {

using support::ThreadPool;
using testutil::temp_path;

class NetSimTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::set_global_concurrency(ThreadPool::default_concurrency());
  }

  static NetSimConfig base_config() {
    NetSimConfig config;
    config.alpha = 0.3;
    config.honest_nodes = 16;
    config.num_blocks = 20'000;
    config.seed = 0x5eedf00dULL;
    return config;
  }
};

void append_stats(std::vector<double>& out, const support::RunningStats& s) {
  out.push_back(static_cast<double>(s.count()));
  out.push_back(s.mean());
  out.push_back(s.variance());
  out.push_back(s.min());
  out.push_back(s.max());
}

/// Flattens a summary into exactly comparable numbers.
std::vector<double> fingerprint(const NetMultiRunSummary& s) {
  std::vector<double> out;
  append_stats(out, s.gamma);
  append_stats(out, s.pool_revenue_s1);
  append_stats(out, s.pool_revenue_s2);
  append_stats(out, s.honest_revenue_s1);
  append_stats(out, s.honest_revenue_s2);
  append_stats(out, s.pool_share);
  append_stats(out, s.uncle_rate);
  append_stats(out, s.stale_rate);
  for (std::uint64_t v : s.distance_blocks) {
    out.push_back(static_cast<double>(v));
  }
  for (std::uint64_t v : s.distance_stale) out.push_back(static_cast<double>(v));
  out.push_back(static_cast<double>(s.race_samples));
  out.push_back(static_cast<double>(s.natural_forks));
  out.push_back(static_cast<double>(s.resyncs));
  out.push_back(static_cast<double>(s.events_processed));
  out.push_back(static_cast<double>(s.runs));
  return out;
}

// ------------------------------------------------ zero-latency equivalence --

TEST_F(NetSimTest, NetZeroLatencyCompleteGraphMatchesMarkovAtEmergentGamma) {
  NetSimConfig config = base_config();  // complete graph, fixed:0 defaults
  const auto summary = run_net_many({config}, 3).front();

  // The emergent gamma is (N-1)/N: in every race only the miner of the
  // honest block saw it before the attacker's rushed match.
  const double expected_gamma = 15.0 / 16.0;
  EXPECT_NEAR(summary.gamma.mean(), expected_gamma, 0.01);
  EXPECT_GT(summary.race_samples, 1000u);

  // One shared instantaneous view: no natural forks, no resyncs -- every
  // stale block is attack-induced, exactly the paper's model.
  EXPECT_EQ(summary.natural_forks, 0u);
  EXPECT_EQ(summary.resyncs, 0u);

  // Revenue agrees with the fixed-gamma Markov model evaluated at the
  // emergent gamma (the golden-figure style cross-check).
  const auto r = analysis::compute_revenue({config.alpha, expected_gamma},
                                           config.rewards, 80);
  for (const auto scenario : {sim::Scenario::regular_rate_one,
                              sim::Scenario::regular_and_uncle_rate_one}) {
    const double expected = analysis::pool_absolute_revenue(r, scenario);
    const auto& got = summary.pool_revenue(scenario);
    EXPECT_NEAR(got.mean(), expected, 5.0 * got.ci_halfwidth() + 0.006)
        << to_string(scenario);
    const double expected_h = analysis::honest_absolute_revenue(r, scenario);
    const auto& got_h = summary.honest_revenue(scenario);
    EXPECT_NEAR(got_h.mean(), expected_h, 5.0 * got_h.ci_halfwidth() + 0.006)
        << to_string(scenario);
  }
}

TEST_F(NetSimTest, NetStarThroughAttackerMatchesGammaZeroMarkov) {
  NetSimConfig config = base_config();
  config.topology = parse_topology_spec("star");
  config.latency = parse_latency_spec("fixed:14");  // 0.1% of the interval
  const auto summary = run_net_many({config}, 3).front();

  // Honest relays win every race at the leaves.
  EXPECT_LT(summary.gamma.mean(), 0.01);
  EXPECT_GT(summary.race_samples, 1000u);

  const auto r =
      analysis::compute_revenue({config.alpha, 0.0}, config.rewards, 80);
  for (const auto scenario : {sim::Scenario::regular_rate_one,
                              sim::Scenario::regular_and_uncle_rate_one}) {
    const double expected = analysis::pool_absolute_revenue(r, scenario);
    const auto& got = summary.pool_revenue(scenario);
    EXPECT_NEAR(got.mean(), expected, 5.0 * got.ci_halfwidth() + 0.006)
        << to_string(scenario);
  }
}

TEST_F(NetSimTest, NetHigherLatencyBreedsNaturalForksAndUncles) {
  NetSimConfig config = base_config();
  config.alpha = 0.0;  // all-honest: every stale block is a latency fork
  config.num_blocks = 10'000;
  config.latency = parse_latency_spec("fixed:2000");  // the ~2s/14s ratio
  const auto summary = run_net_many({config}, 2).front();
  EXPECT_EQ(summary.race_samples, 0u);  // no attacker blocks, no races
  // An all-honest network with real propagation delay forks naturally; the
  // uncle mechanism recovers most of those blocks.
  EXPECT_GT(summary.stale_rate.mean(), 0.02);
  EXPECT_GT(summary.uncle_rate.mean(), 0.5 * summary.stale_rate.mean());
}

// ------------------------------------------------------------ determinism --

TEST_F(NetSimTest, NetRunManyIsBitwiseIdenticalAcrossThreadCounts) {
  NetSimConfig config = base_config();
  config.num_blocks = 4'000;
  config.latency = parse_latency_spec("exp:300");
  config.topology = parse_topology_spec("random:0.2");

  std::vector<double> reference;
  for (unsigned threads : {1u, 4u, ThreadPool::default_concurrency()}) {
    ThreadPool::set_global_concurrency(threads);
    const auto fp = fingerprint(run_net_many({config}, 6).front());
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(reference, fp) << "thread count " << threads;
    }
  }
}

TEST_F(NetSimTest, NetInterruptedResumeIsBitwiseIdenticalToFresh) {
  NetSimConfig config = base_config();
  config.num_blocks = 3'000;
  config.latency = parse_latency_spec("uniform:50:400");
  constexpr int kRuns = 5;

  const auto fresh = fingerprint(run_net_many({config}, kRuns).front());

  const std::string dir = temp_path("resume");
  support::SweepCheckpoint checkpoint;
  checkpoint.directory = dir;

  // Interrupt after two jobs, then resume to completion.
  support::SweepCheckpoint budgeted = checkpoint;
  budgeted.max_new_jobs = 2;
  support::SweepOutcome partial;
  (void)run_net_many({config}, kRuns, budgeted, &partial);
  EXPECT_EQ(partial.computed, 2u);
  EXPECT_EQ(partial.skipped, static_cast<std::size_t>(kRuns) - 2u);

  support::SweepOutcome resumed;
  const auto summary =
      run_net_many({config}, kRuns, checkpoint, &resumed).front();
  EXPECT_EQ(resumed.loaded, 2u);
  EXPECT_EQ(resumed.computed, static_cast<std::size_t>(kRuns) - 2u);
  EXPECT_EQ(fingerprint(summary), fresh);
}

// ------------------------------------------------------------- accounting --

TEST_F(NetSimTest, NetConservationAndDiagnostics) {
  NetSimConfig config = base_config();
  config.num_blocks = 5'000;
  config.topology = parse_topology_spec("two_clusters:2000");
  config.latency = parse_latency_spec("fixed:100");
  const NetSimResult r = run_net_simulation(config);

  EXPECT_EQ(r.sim.blocks_mined_pool + r.sim.blocks_mined_honest,
            config.num_blocks);
  EXPECT_LE(r.race_pool_choices, r.race_samples);
  EXPECT_GT(r.events_processed, config.num_blocks);

  // Every honest block lands in exactly one hop-distance bucket.
  std::uint64_t bucketed = 0;
  for (std::uint64_t b : r.distance_blocks) bucketed += b;
  EXPECT_EQ(bucketed, r.sim.blocks_mined_honest);
  for (std::size_t d = 0; d < r.distance_blocks.size(); ++d) {
    EXPECT_LE(r.distance_stale[d], r.distance_blocks[d]) << "distance " << d;
  }

  // The ledger accounts for every mined block.
  const auto& f = r.sim.ledger.fates;
  EXPECT_EQ(f[0].total() + f[1].total(), config.num_blocks);
}

TEST_F(NetSimTest, NetAnnounceRelayModeRunsAndStaysConserved) {
  NetSimConfig config = base_config();
  config.num_blocks = 3'000;
  config.relay = RelayMode::announce;
  config.latency = parse_latency_spec("fixed:50");
  const NetSimResult r = run_net_simulation(config);
  EXPECT_EQ(r.sim.blocks_mined_pool + r.sim.blocks_mined_honest,
            config.num_blocks);
  // The handshake costs ~3x the messages of cut-through pushes.
  EXPECT_GT(r.events_processed, 3 * config.num_blocks);
}

}  // namespace
}  // namespace ethsm::net
