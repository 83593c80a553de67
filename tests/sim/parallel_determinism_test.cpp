// The parallel execution layer's determinism contract: every multi-run
// aggregate is BITWISE-identical regardless of the thread count, because
// per-run seeds depend only on the run index and reductions happen serially
// in index order (support/parallel.h). These tests run the same experiment
// at 1, 4 and hardware threads and compare every statistic with exact
// floating-point equality. A cell's sweep list runs as ONE pool region, so
// batching is checked too: every sweep of a batched net or stubborn list
// equals its own one-element run at 1, 2, 3, 4 and 7 threads, and the
// Markov passes api::run moved onto the pool (reward_design, timeline,
// uncle_distance) render the same at 1 and 4 threads. Tests of Markov
// results empty the process solve memo before each thread count, so every
// pass solves its chains itself rather than replaying an earlier pass's.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/solve_memo.h"
#include "analysis/sweep.h"
#include "api/presets.h"
#include "api/render.h"
#include "api/runner.h"
#include "net/net_sim.h"
#include "sim/delay_sim.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace ethsm::sim {
namespace {

using support::ThreadPool;

std::vector<unsigned> thread_counts_under_test() {
  return {1u, 4u, ThreadPool::default_concurrency()};
}

/// Sets the pool size and empties the process solve memo.
void use_threads_with_a_cold_memo(unsigned threads) {
  ThreadPool::set_global_concurrency(threads);
  analysis::SolveMemo::process().clear();
}

class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::set_global_concurrency(ThreadPool::default_concurrency());
  }
};

/// Flattens a RunningStats into exactly comparable numbers.
void append_stats(std::vector<double>& out, const support::RunningStats& s) {
  out.push_back(static_cast<double>(s.count()));
  out.push_back(s.mean());
  out.push_back(s.variance());
  out.push_back(s.min());
  out.push_back(s.max());
}

void append_histogram(std::vector<double>& out, const support::Histogram& h) {
  for (std::size_t b = 0; b < h.size(); ++b) {
    out.push_back(static_cast<double>(h.at(b)));
  }
  out.push_back(static_cast<double>(h.overflow()));
}

std::vector<double> fingerprint(const MultiRunSummary& s) {
  std::vector<double> out;
  append_stats(out, s.pool_revenue_s1);
  append_stats(out, s.pool_revenue_s2);
  append_stats(out, s.honest_revenue_s1);
  append_stats(out, s.honest_revenue_s2);
  append_stats(out, s.total_revenue_s1);
  append_stats(out, s.total_revenue_s2);
  append_stats(out, s.pool_share);
  append_stats(out, s.uncle_rate);
  append_histogram(out, s.uncle_distance_pool);
  append_histogram(out, s.uncle_distance_honest);
  out.push_back(static_cast<double>(s.runs));
  return out;
}

TEST_F(DeterminismTest, RunManyIsBitwiseIdenticalAcrossThreadCounts) {
  SimConfig config;
  config.alpha = 0.35;
  config.gamma = 0.5;
  config.num_blocks = 8'000;
  config.seed = 2026;

  std::vector<double> reference;
  for (unsigned threads : thread_counts_under_test()) {
    ThreadPool::set_global_concurrency(threads);
    const auto fp = fingerprint(run_many({config}, 10).front());
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(reference, fp) << "thread count " << threads;
    }
  }
}

TEST_F(DeterminismTest, RunStubbornManyIsBitwiseIdenticalAcrossThreadCounts) {
  SimConfig config;
  config.alpha = 0.3;
  config.gamma = 0.5;
  config.num_blocks = 6'000;
  config.seed = 77;
  const miner::Strategy strategy{.lead = true};

  std::vector<double> reference;
  for (unsigned threads : thread_counts_under_test()) {
    ThreadPool::set_global_concurrency(threads);
    const auto fp =
        fingerprint(run_stubborn_many({{config, strategy}}, 6).front());
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(reference, fp) << "thread count " << threads;
    }
  }
}

TEST_F(DeterminismTest, RunManyMatchesTheHistoricalSerialSeeds) {
  // The parallel driver must keep the serial seed chain: run r uses
  // derive_seed(master, r). A hand-rolled serial loop is the reference.
  SimConfig config;
  config.alpha = 0.3;
  config.num_blocks = 5'000;
  config.seed = 424242;
  constexpr int kRuns = 4;

  MultiRunSummary serial;
  for (int r = 0; r < kRuns; ++r) {
    SimConfig run_config = config;
    run_config.seed =
        support::derive_seed(config.seed, static_cast<std::uint64_t>(r));
    serial.absorb(run_simulation(run_config));
  }

  ThreadPool::set_global_concurrency(4);
  EXPECT_EQ(fingerprint(serial),
            fingerprint(run_many({config}, kRuns).front()));
}

TEST_F(DeterminismTest, RevenueCurveSimsAreBitwiseIdenticalAcrossThreadCounts) {
  analysis::RevenueCurveOptions options;
  options.alphas = {0.0, 0.15, 0.3, 0.4};
  options.sim_runs = 3;
  options.sim_blocks = 4'000;
  options.max_lead = 40;

  auto flatten = [](const std::vector<analysis::RevenuePoint>& curve) {
    std::vector<double> out;
    for (const auto& p : curve) {
      out.push_back(p.alpha);
      out.push_back(p.pool_revenue);
      out.push_back(p.honest_revenue);
      out.push_back(p.total_revenue);
      out.push_back(p.uncle_rate);
      out.push_back(p.pool_revenue_sim.value_or(-1.0));
      out.push_back(p.honest_revenue_sim.value_or(-1.0));
      out.push_back(p.pool_revenue_sim_ci.value_or(-1.0));
      out.push_back(p.honest_revenue_sim_ci.value_or(-1.0));
    }
    return out;
  };

  std::vector<double> reference;
  for (unsigned threads : thread_counts_under_test()) {
    use_threads_with_a_cold_memo(threads);
    const auto fp = flatten(analysis::revenue_curve({options}).front());
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(reference, fp) << "thread count " << threads;
    }
  }
}

TEST_F(DeterminismTest, ThresholdCurveIsIdenticalAcrossThreadCounts) {
  analysis::ThresholdCurveOptions options;
  options.gammas = {0.0, 0.5, 1.0};
  options.threshold.tolerance = 1e-4;
  options.threshold.max_lead = 40;

  auto flatten = [](const std::vector<analysis::ThresholdPoint>& curve) {
    std::vector<double> out;
    for (const auto& p : curve) {
      out.push_back(p.gamma);
      out.push_back(p.bitcoin);
      out.push_back(p.ethereum_scenario1.value_or(-1.0));
      out.push_back(p.ethereum_scenario2.value_or(-1.0));
    }
    return out;
  };

  std::vector<double> reference;
  for (unsigned threads : thread_counts_under_test()) {
    use_threads_with_a_cold_memo(threads);
    const auto fp = flatten(analysis::threshold_curve(options));
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(reference, fp) << "thread count " << threads;
    }
  }
}

TEST_F(DeterminismTest, DelayManyIsBitwiseIdenticalAcrossThreadCounts) {
  DelaySimConfig config;
  config.num_blocks = 4'000;
  config.seed = 1234;

  std::vector<double> reference;
  for (unsigned threads : thread_counts_under_test()) {
    ThreadPool::set_global_concurrency(threads);
    const auto summary = run_delay_many({config}, 4).front();
    std::vector<double> fp;
    append_stats(fp, summary.uncle_rate);
    append_stats(fp, summary.stale_rate);
    append_stats(fp, summary.duration);
    for (const auto& s : summary.per_miner_stale_fraction) {
      append_stats(fp, s);
    }
    fp.push_back(static_cast<double>(summary.runs));
    if (reference.empty()) {
      reference = fp;
    } else {
      EXPECT_EQ(reference, fp) << "thread count " << threads;
    }
  }
}

std::vector<double> fingerprint(const net::NetMultiRunSummary& s) {
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
  for (std::uint64_t v : s.distance_stale) {
    out.push_back(static_cast<double>(v));
  }
  for (std::uint64_t v :
       {s.race_samples, s.natural_forks, s.resyncs, s.events_processed,
        s.faults_messages_dropped, s.faults_mining_lost,
        s.faults_downtime_events}) {
    out.push_back(static_cast<double>(v));
  }
  out.push_back(static_cast<double>(s.runs));
  return out;
}

const std::vector<unsigned> kBatchThreadCounts = {1u, 2u, 3u, 4u, 7u};

TEST_F(DeterminismTest, BatchedNetSweepsMatchTheirSerialRuns) {
  // Per alpha, a faulted sweep and its fault-free twin: the net_faults shape.
  std::vector<net::NetSimConfig> configs;
  for (double alpha : {0.2, 0.35}) {
    net::NetSimConfig config;
    config.alpha = alpha;
    config.honest_nodes = 6;
    config.num_blocks = 300;
    config.seed = 31;
    config.faults.drop = 0.1;
    config.faults.churn = net::parse_churn_spec("400:100");
    configs.push_back(config);
    config.faults = net::FaultSpec{};
    configs.push_back(config);
  }
  constexpr int kRuns = 3;

  ThreadPool::set_global_concurrency(1);
  std::vector<std::vector<double>> serial;
  for (const auto& config : configs) {
    serial.push_back(fingerprint(net::run_net_many({config}, kRuns).front()));
  }
  for (unsigned threads : kBatchThreadCounts) {
    ThreadPool::set_global_concurrency(threads);
    const auto batch = net::run_net_many(configs, kRuns);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t k = 0; k < configs.size(); ++k) {
      EXPECT_EQ(serial[k], fingerprint(batch[k]))
          << "sweep " << k << " at " << threads << " threads";
    }
  }
}

TEST_F(DeterminismTest, BatchedStubbornSweepsMatchTheirSerialRuns) {
  // Alpha-major (alpha x series) list, as the stubborn_sim kind runs it.
  std::vector<StubbornSweep> sweeps;
  for (double alpha : {0.25, 0.35, 0.45}) {
    SimConfig config;
    config.alpha = alpha;
    config.gamma = 0.5;
    config.num_blocks = 2'000;
    config.seed = 0x57ab + static_cast<std::uint64_t>(alpha * 1e4);
    for (const miner::Strategy& strategy :
         {miner::Strategy{}, miner::Strategy{.lead = true},
          miner::Strategy{.trail = 2}}) {
      sweeps.push_back({config, strategy});
    }
  }
  constexpr int kRuns = 3;

  ThreadPool::set_global_concurrency(1);
  std::vector<std::vector<double>> serial;
  for (const auto& s : sweeps) {
    serial.push_back(fingerprint(run_stubborn_many({s}, kRuns).front()));
  }
  for (unsigned threads : kBatchThreadCounts) {
    ThreadPool::set_global_concurrency(threads);
    const auto batch = run_stubborn_many(sweeps, kRuns);
    ASSERT_EQ(batch.size(), sweeps.size());
    for (std::size_t k = 0; k < sweeps.size(); ++k) {
      EXPECT_EQ(serial[k], fingerprint(batch[k]))
          << "sweep " << k << " at " << threads << " threads";
    }
  }
}

TEST_F(DeterminismTest, MarkovPassesOnThePoolRenderTheSameAtOneAndFourThreads) {
  std::vector<api::ExperimentSpec> specs = {
      api::preset_spec("sec6_reward_design", /*quick=*/true),
      api::preset_spec("ext_timeline", /*quick=*/true),
      api::preset_spec("table2", /*quick=*/true),
  };
  specs[2].sim_blocks = 2'000;  // the analysis half is under test here
  for (const api::ExperimentSpec& spec : specs) {
    use_threads_with_a_cold_memo(1);
    const std::string serial = api::render_json(api::run(spec));
    use_threads_with_a_cold_memo(4);
    EXPECT_EQ(serial, api::render_json(api::run(spec)))
        << api::to_string(spec.kind);
  }
}

}  // namespace
}  // namespace ethsm::sim
