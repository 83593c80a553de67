// Fault-injection layer tests (`ctest -L faults`): parsed sub-spec grammars
// and their error cases, the null-spec bitwise-equivalence guarantee,
// faulted-run determinism across thread counts and interrupt+resume, the
// analytic anchors (a permanent attacker partition drives the endogenous
// gamma to exactly 0 and pool revenue below the gamma = 0 Markov prediction;
// eclipsing a 50%-hash honest node raises gamma well above the clean run),
// and the fault accounting/conservation invariants.

#include "net/faults.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/absolute_revenue.h"
#include "analysis/revenue.h"
#include "net/net_sim.h"
#include "support/temp_dir.h"
#include "support/thread_pool.h"

namespace ethsm::net {
namespace {

using support::ThreadPool;
using testutil::temp_path;

// ----------------------------------------------------------------- grammar --

TEST(NetFaultGrammar, ChurnParsesAndRejectsMalformed) {
  EXPECT_EQ(parse_churn_spec("off"), ChurnSpec{});
  const std::pair<const char*, ChurnSpec> cases[] = {
      {"70000:14000", {70000.0, 14000.0}},
      {"0.5:2", {0.5, 2.0}},
      {" 14000 : 14000 ", {14000.0, 14000.0}},
  };
  for (const auto& [text, expected] : cases) {
    const ChurnSpec spec = parse_churn_spec(text);
    EXPECT_TRUE(spec.enabled()) << text;
    EXPECT_EQ(spec, expected) << text;
  }
  for (const char* bad :
       {"", "70000", "0:14000", "70000:0", "-1:2", "a:b", "1:2:3", "1:inf"}) {
    EXPECT_THROW((void)parse_churn_spec(bad), std::invalid_argument) << bad;
  }
}

TEST(NetFaultGrammar, PartitionParsesAndRejectsMalformed) {
  EXPECT_EQ(parse_partition_spec("off"), PartitionSpec{});
  const PartitionSpec p = parse_partition_spec("1000:9000");
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.start_ms, 1000.0);
  EXPECT_EQ(p.heal_ms, 9000.0);
  EXPECT_EQ(p.cut, PartitionCut::automatic);  // `:auto` is the default
  const std::pair<const char*, PartitionSpec> cases[] = {
      {"0:100", {true, 0.0, 100.0, PartitionCut::automatic}},
      {"1000:9000:bridge", {true, 1000.0, 9000.0, PartitionCut::bridge}},
      {"1000:9000:random", {true, 1000.0, 9000.0, PartitionCut::random_cut}},
      {"0:1e12:attacker", {true, 0.0, 1e12, PartitionCut::attacker}},
  };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(parse_partition_spec(text), expected) << text;
  }
  EXPECT_EQ(parse_partition_spec("5:6:auto"), parse_partition_spec("5:6"));
  for (const char* bad :
       {"", "1000", "9000:1000", "-1:5", "1:2:sideways", "a:b", "1:2:3:4"}) {
    EXPECT_THROW((void)parse_partition_spec(bad), std::invalid_argument) << bad;
  }
}

TEST(NetFaultGrammar, EclipseParsesAndRejectsMalformed) {
  EXPECT_EQ(parse_eclipse_spec("off"), EclipseSpec{});
  const EclipseSpec e = parse_eclipse_spec("3:5000:0.25");
  EXPECT_TRUE(e.enabled());
  EXPECT_EQ(e.victim, 3u);
  EXPECT_EQ(e.delay_ms, 5000.0);
  EXPECT_EQ(e.drop, 0.25);
  // An omitted drop probability is 0.
  EXPECT_EQ(parse_eclipse_spec("3:5000"), (EclipseSpec{3, 5000.0, 0.0}));
  EXPECT_EQ(parse_eclipse_spec("3:5000:0"), parse_eclipse_spec("3:5000"));
  for (const char* bad : {"", "0:100", "1", "1:-5", "1:5:1", "1:5:1.5",
                          "1.5:100", "-1:100", "1:5:0.1:9"}) {
    EXPECT_THROW((void)parse_eclipse_spec(bad), std::invalid_argument) << bad;
  }
}

TEST(NetFaultGrammar, FaultSpecValidateBoundsEveryField) {
  FaultSpec spec;
  spec.validate(16);  // the null spec is always valid

  spec.drop = 1.0;
  EXPECT_THROW(spec.validate(16), std::invalid_argument);
  spec.drop = 0.05;
  spec.validate(16);

  spec.churn.mean_up_ms = 70'000.0;  // down mean missing
  EXPECT_THROW(spec.validate(16), std::invalid_argument);
  spec.churn.mean_down_ms = 14'000.0;
  spec.validate(16);

  spec.partition.enabled = true;
  spec.partition.start_ms = 500.0;
  spec.partition.heal_ms = 100.0;  // heals before it starts
  EXPECT_THROW(spec.validate(16), std::invalid_argument);
  spec.partition.heal_ms = 900.0;
  spec.validate(16);

  spec.eclipse.victim = 17;  // honest ids are 1..16
  EXPECT_THROW(spec.validate(16), std::invalid_argument);
  spec.eclipse.victim = 16;
  spec.validate(16);
}

// ------------------------------------------------------------- determinism --

NetSimConfig faulted_config() {
  NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 10;
  config.num_blocks = 3'000;
  config.seed = 0x5eedf00dULL;
  config.latency = parse_latency_spec("exp:200");
  config.topology = parse_topology_spec("random:0.3");
  config.faults.drop = 0.08;
  config.faults.churn = parse_churn_spec("70000:14000");
  config.faults.partition = parse_partition_spec("100000:400000:random");
  config.faults.eclipse = parse_eclipse_spec("2:2000:0.3");
  return config;
}

void append_stats(std::vector<double>& out, const support::RunningStats& s) {
  out.push_back(static_cast<double>(s.count()));
  out.push_back(s.mean());
  out.push_back(s.variance());
  out.push_back(s.min());
  out.push_back(s.max());
}

/// Flattens a summary -- fault counters included -- for bitwise comparison.
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
  out.push_back(static_cast<double>(s.faults_messages_dropped));
  out.push_back(static_cast<double>(s.faults_mining_lost));
  out.push_back(static_cast<double>(s.faults_downtime_events));
  out.push_back(static_cast<double>(s.runs));
  return out;
}

class NetFaultDeterminism : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::set_global_concurrency(ThreadPool::default_concurrency());
  }
};

TEST_F(NetFaultDeterminism, NullFaultSpecIsBitwiseIdenticalToCleanRun) {
  NetSimConfig clean;
  clean.alpha = 0.3;
  clean.honest_nodes = 8;
  clean.num_blocks = 3'000;
  clean.seed = 0x5eedf00dULL;
  clean.latency = parse_latency_spec("fixed:150");

  // A spelled-out but all-off FaultSpec must take the exact clean code path:
  // no fault branch may consume an engine RNG draw or reorder an event.
  NetSimConfig spelled = clean;
  spelled.faults.drop = 0.0;
  spelled.faults.churn = parse_churn_spec("off");
  spelled.faults.partition = parse_partition_spec("off");
  spelled.faults.eclipse = parse_eclipse_spec("off");
  EXPECT_FALSE(spelled.faults.any());

  const auto a = run_net_many({clean}, 3).front();
  const auto b = run_net_many({spelled}, 3).front();
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(a.faults_messages_dropped, 0u);
  EXPECT_EQ(a.faults_mining_lost, 0u);
  EXPECT_EQ(a.faults_downtime_events, 0u);
  // ...and the checkpoint fingerprint agrees, so clean sweeps keep resuming
  // from records written before the fault layer existed in the spec.
  EXPECT_EQ(run_net_many_fingerprint(clean, 3),
            run_net_many_fingerprint(spelled, 3));
}

TEST_F(NetFaultDeterminism, FaultedRunsAreBitwiseIdenticalAcrossThreadCounts) {
  const NetSimConfig config = faulted_config();
  std::vector<double> reference;
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_concurrency(threads);
    const auto fp = fingerprint(run_net_many({config}, 6).front());
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(reference, fp) << "thread count " << threads;
    }
  }
}

TEST_F(NetFaultDeterminism, FaultedInterruptedResumeIsBitwiseIdentical) {
  const NetSimConfig config = faulted_config();
  constexpr int kRuns = 5;
  const auto fresh = fingerprint(run_net_many({config}, kRuns).front());

  const std::string dir = temp_path("resume");
  support::SweepCheckpoint checkpoint;
  checkpoint.directory = dir;

  support::SweepCheckpoint budgeted = checkpoint;
  budgeted.max_new_jobs = 2;
  support::SweepOutcome partial;
  (void)run_net_many({config}, kRuns, budgeted, &partial);
  EXPECT_EQ(partial.computed, 2u);

  support::SweepOutcome resumed;
  const auto summary =
      run_net_many({config}, kRuns, checkpoint, &resumed).front();
  EXPECT_EQ(resumed.loaded, 2u);
  EXPECT_EQ(resumed.computed, static_cast<std::size_t>(kRuns) - 2u);
  EXPECT_EQ(fingerprint(summary), fresh);
}

TEST_F(NetFaultDeterminism, FingerprintSeparatesFaultedFromCleanSweeps) {
  NetSimConfig clean;
  NetSimConfig faulted = clean;
  faulted.faults.drop = 0.05;
  EXPECT_NE(run_net_many_fingerprint(clean, 4),
            run_net_many_fingerprint(faulted, 4));
  NetSimConfig churned = clean;
  churned.faults.churn = parse_churn_spec("70000:14000");
  EXPECT_NE(run_net_many_fingerprint(faulted, 4),
            run_net_many_fingerprint(churned, 4));
}

// ----------------------------------------------------------------- anchors --

TEST(NetFaultAnchor, PermanentAttackerPartitionDrivesGammaToZero) {
  NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 8;
  config.num_blocks = 4'000;
  config.seed = 0x5eedf00dULL;
  config.latency = parse_latency_spec("fixed:50");
  config.faults.partition = parse_partition_spec("0:1e15:attacker");

  const auto summary = run_net_many({config}, 2).front();

  // No honest node ever sees a pool block, so no honest mining event ever
  // races: the endogenous gamma is *exactly* zero, not merely small.
  EXPECT_EQ(summary.race_samples, 0u);
  EXPECT_EQ(summary.gamma.mean(), 0.0);

  // With every pool block stale and unreferencable the attacker earns ~0 --
  // at or below the gamma = 0 Markov prediction (the fully connected lower
  // bound, where the pool still wins height races it leads).
  const auto r =
      analysis::compute_revenue({config.alpha, 0.0}, config.rewards, 80);
  const double markov_floor =
      analysis::pool_absolute_revenue(r, sim::Scenario::regular_rate_one);
  EXPECT_GT(markov_floor, 0.05);  // sanity: the bound itself is not trivial
  EXPECT_LE(summary.pool_revenue_s1.mean(), markov_floor);
  EXPECT_LT(summary.pool_revenue_s1.mean(), 0.02);
  EXPECT_GT(summary.faults_messages_dropped, 0u);
}

TEST(NetFaultAnchor, EclipsingAnHonestNodeRaisesGammaAboveClean) {
  // Two honest nodes with 50% of the honest hash each, positive latency: on
  // the clean network honest push-relays beat the attacker's fresh-block
  // handshake, so gamma ~ 0. Eclipsing node 1 -- delaying every honest block
  // toward it past the attacker's publication -- flips the victim's
  // first-seen ordering in races, handing the attacker that node's hash
  // power: the victim keeps seeing pool blocks first. (The delay must stay
  // well inside the block interval: the victim only contributes race samples
  // while it holds BOTH racing tips, so an over-long delay shrinks its
  // sampling window instead of growing gamma.)
  NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 2;
  config.num_blocks = 8'000;
  config.seed = 0x5eedf00dULL;
  config.latency = parse_latency_spec("fixed:300");

  const auto clean = run_net_many({config}, 2).front();

  NetSimConfig eclipsed = config;
  eclipsed.faults.eclipse = parse_eclipse_spec("1:1000");
  const auto victim = run_net_many({eclipsed}, 2).front();

  EXPECT_GT(clean.race_samples, 200u);
  EXPECT_GT(victim.race_samples, 200u);
  EXPECT_LT(clean.gamma.mean(), 0.1);
  EXPECT_GT(victim.gamma.mean(), clean.gamma.mean() + 0.15);
  // The extra races the pool now wins show up as revenue, too.
  EXPECT_GT(victim.pool_revenue_s1.mean(), clean.pool_revenue_s1.mean());
}

// -------------------------------------------------------------- accounting --

TEST(NetFaultAccounting, ChurnAndDropConserveBlocksAndCountLosses) {
  NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 10;
  config.num_blocks = 4'000;
  config.seed = 0x5eedf00dULL;
  config.latency = parse_latency_spec("fixed:120");
  config.faults.drop = 0.1;
  config.faults.churn = parse_churn_spec("70000:14000");

  const NetSimResult r = run_net_simulation(config);

  // Every scheduled mining interval either minted a block or was lost to a
  // crashed miner -- nothing double-counts, and the ledger accounts for
  // every block that was actually minted.
  EXPECT_EQ(r.sim.blocks_mined_pool + r.sim.blocks_mined_honest +
                r.faults_mining_lost,
            config.num_blocks);
  const auto& f = r.sim.ledger.fates;
  EXPECT_EQ(f[0].total() + f[1].total(),
            r.sim.blocks_mined_pool + r.sim.blocks_mined_honest);

  EXPECT_GT(r.faults_messages_dropped, 0u);
  EXPECT_GT(r.faults_mining_lost, 0u);
  EXPECT_GT(r.faults_downtime_events, 0u);
  // Mean uptime is 5 block intervals: across ~4000 intervals every honest
  // node crashes many times, and restarts must re-sync (the chain keeps
  // growing past crashed nodes, so gaps are the norm, not the exception).
  EXPECT_GT(r.faults_downtime_events, 100u);

  // A clean run of the same config has no fault events at all.
  NetSimConfig clean = config;
  clean.faults = FaultSpec{};
  const NetSimResult c = run_net_simulation(clean);
  EXPECT_EQ(c.faults_messages_dropped, 0u);
  EXPECT_EQ(c.faults_mining_lost, 0u);
  EXPECT_EQ(c.faults_downtime_events, 0u);
}

TEST(NetFaultAccounting, MessageDropRaisesStaleRate) {
  NetSimConfig config;
  config.alpha = 0.0;  // all-honest: stale blocks isolate the fault effect
  config.honest_nodes = 10;
  config.num_blocks = 6'000;
  config.seed = 0x5eedf00dULL;
  config.latency = parse_latency_spec("fixed:500");

  const auto clean = run_net_many({config}, 2).front();
  NetSimConfig lossy = config;
  lossy.faults.drop = 0.25;
  const auto dropped = run_net_many({lossy}, 2).front();

  // Losing a quarter of all gossip messages slows propagation (push relays
  // die, announces must retry), so natural forks become more common.
  EXPECT_GT(dropped.stale_rate.mean(), clean.stale_rate.mean());
  EXPECT_GT(dropped.faults_messages_dropped, 1000u);
}

}  // namespace
}  // namespace ethsm::net
