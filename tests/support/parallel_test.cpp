#include "support/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/solve_memo.h"
#include "analysis/sweep.h"
#include "support/temp_dir.h"
#include "support/thread_pool.h"

namespace ethsm::support {
namespace {

constexpr auto kPatience = std::chrono::seconds(10);

/// A counter threads can wait on, with a deadline instead of a sleep: a
/// scheduling bug shows up as a timed-out wait, never as a hang.
class Tally {
 public:
  void arrive() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++count_;
    }
    cv_.notify_all();
  }
  /// True once `n` arrivals have happened; false after kPatience.
  [[nodiscard]] bool wait_for(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, kPatience, [&] { return count_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int count_ = 0;
};

/// Restores the default global pool after each test so the suite's other
/// tests never observe a leftover thread count.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::set_global_concurrency(ThreadPool::default_concurrency());
  }
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 5u}) {
    ThreadPool::set_global_concurrency(threads);
    constexpr std::size_t kJobs = 1000;
    std::vector<std::atomic<int>> hits(kJobs);
    parallel_for(kJobs, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST_F(ParallelTest, MapKeepsResultsAtTheirIndex) {
  ThreadPool::set_global_concurrency(4);
  const auto squares =
      parallel_map(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 257u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST_F(ParallelTest, ZeroAndOneJobRunInline) {
  ThreadPool::set_global_concurrency(4);
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, PropagatesTheFirstException) {
  ThreadPool::set_global_concurrency(4);
  EXPECT_THROW(
      parallel_for(64,
                   [](std::size_t i) {
                     if (i % 7 == 3) throw std::runtime_error("job failed");
                   }),
      std::runtime_error);
  // The pool must stay usable after a throwing region.
  std::atomic<int> ok{0};
  parallel_for(16, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
}

TEST_F(ParallelTest, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadPool::set_global_concurrency(4);
  std::atomic<int> total{0};
  std::atomic<int> moved{0};
  parallel_for(8, [&](std::size_t) {
    // A parallel region inside a job of the same pool must not dispatch back
    // to it (deadlock risk); it runs serially on the current thread.
    const std::thread::id outer = std::this_thread::get_id();
    parallel_for(8, [&](std::size_t) {
      total.fetch_add(1);
      if (std::this_thread::get_id() != outer) moved.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 64);
  EXPECT_EQ(moved.load(), 0);
}

TEST_F(ParallelTest, JobOfAnotherPoolIsHelpedByThisPoolsWorkers) {
  // A connection thread of the daemon is a job of the server's own pool; the
  // sweeps it starts must still fan out on the compute pool. Both jobs of
  // the inner region must be running at once to meet, which needs a worker
  // of `compute` next to the calling thread.
  ThreadPool outer(2);
  ThreadPool compute(2);
  std::atomic<int> met{0};
  std::atomic<int> inner_jobs{0};
  outer.for_each_index(2, [&](std::size_t job) {
    if (job != 0) return;
    Tally arrived;
    compute.for_each_index(2, [&](std::size_t) {
      arrived.arrive();
      if (arrived.wait_for(2)) met.fetch_add(1);
      inner_jobs.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_jobs.load(), 2);
  EXPECT_EQ(met.load(), 2) << "the inner region ran on one thread";
}

TEST_F(ParallelTest, ConcurrentRegionsAllCompleteAndTheOlderIsHelpedFirst) {
  // One worker. Region 0 pins it (and its caller) until `release` opens;
  // regions 1 and 2 are then published in that order from two threads, each
  // caller blocked in its first job until a helper shows up. The freed
  // worker must pick region 1, the oldest with unclaimed jobs.
  ThreadPool pool(2);
  constexpr std::size_t kJobs = 16;
  Tally pinned;
  Tally release;
  Tally blocked;
  Tally helped;
  std::atomic<int> first_helped{0};
  std::vector<std::atomic<int>> hits(2 * kJobs);

  auto region = [&](int id) {
    const std::thread::id caller = std::this_thread::get_id();
    pool.for_each_index(kJobs, [&, id, caller](std::size_t i) {
      hits[static_cast<std::size_t>(id - 1) * kJobs + i].fetch_add(1);
      if (std::this_thread::get_id() != caller) {
        int none = 0;
        first_helped.compare_exchange_strong(none, id);
        helped.arrive();
      } else if (i == 0) {
        blocked.arrive();
        (void)helped.wait_for(1);
      }
    });
  };

  std::thread pin([&] {
    pool.for_each_index(2, [&](std::size_t) {
      pinned.arrive();
      (void)release.wait_for(1);
    });
  });
  // EXPECT, not ASSERT: every wait has a deadline, so on a failed step the
  // test still runs to the joins below.
  EXPECT_TRUE(pinned.wait_for(2));
  std::thread older([&] { region(1); });
  EXPECT_TRUE(blocked.wait_for(1));
  std::thread newer([&] { region(2); });
  EXPECT_TRUE(blocked.wait_for(2));
  release.arrive();
  pin.join();
  older.join();
  newer.join();

  EXPECT_EQ(first_helped.load(), 1);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "region " << k / kJobs + 1 << " job "
                                 << k % kJobs;
  }
}

TEST_F(ParallelTest, BackToBackRegionsStaySane) {
  // Regression: a worker descheduled between the region wake-up and its
  // first ticket claim must not leak into the next region's accounting
  // (stale-snapshot race). Hammer consecutive tiny regions to give such
  // stragglers every chance to straddle a boundary.
  ThreadPool::set_global_concurrency(4);
  for (std::size_t round = 0; round < 500; ++round) {
    const auto r = parallel_map(
        8, [round](std::size_t i) { return round * 100 + i; });
    ASSERT_EQ(r.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
      ASSERT_EQ(r[i], round * 100 + i) << "round " << round;
    }
  }
}

TEST_F(ParallelTest, ReductionIsIdenticalAcrossThreadCounts) {
  // The library's determinism contract in miniature: map to an index-ordered
  // vector, reduce serially.
  auto reduce = [](unsigned threads) {
    ThreadPool::set_global_concurrency(threads);
    const auto parts = parallel_map(
        100, [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); });
    return std::accumulate(parts.begin(), parts.end(), 0.0);
  };
  const double serial = reduce(1);
  EXPECT_EQ(serial, reduce(3));
  EXPECT_EQ(serial, reduce(8));
}

/// Fig. 9's shape: five revenue curves (one per reward schedule) over the
/// same 19 alphas at one gamma and truncation, so curves 1-4 repeat curve
/// 0's solves. Returns the sweeps and their jobs' dispatch costs.
std::vector<SweepKey> fig9_shape(std::vector<double>& cost) {
  const std::vector<double> alphas = analysis::fig8_alpha_grid();
  std::vector<SweepKey> sweeps;
  std::vector<analysis::ColdSolve> solves;
  for (std::uint64_t curve = 0; curve < 5; ++curve) {
    sweeps.push_back({0xf19 + curve, alphas.size()});
    for (double alpha : alphas) solves.push_back({{alpha, 0.5}, 80});
  }
  cost = analysis::cold_solve_costs(solves);
  return sweeps;
}

/// A job whose result has many significant bits, so a misplaced result
/// cannot compare equal by accident.
double job_value(std::size_t s, std::size_t i) {
  return std::sin(static_cast<double>(s * 1000 + i) + 0.5) / 3.0;
}

TEST_F(ParallelTest, RegionClaimsTheCostliestJobFirstAndMemoRepeatsLast) {
  ThreadPool::set_global_concurrency(1);  // claims run inline, in order
  std::vector<double> cost;
  const std::vector<SweepKey> sweeps = fig9_shape(cost);
  std::vector<std::pair<std::size_t, std::size_t>> claims;
  (void)run_checkpointed<double>(
      {}, nullptr, sweeps,
      [&](std::size_t s, std::size_t i) {
        claims.emplace_back(s, i);
        return job_value(s, i);
      },
      cost);
  const std::size_t n = sweeps[0].n;
  ASSERT_EQ(claims.size(), 5 * n);
  // Curve 0 holds the first solve of every key: highest alpha first.
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(claims[k], std::make_pair(std::size_t{0}, n - 1 - k))
        << "claim " << k;
  }
  // Every repeat after every first solve, in listed order.
  for (std::size_t k = n; k < claims.size(); ++k) {
    EXPECT_EQ(claims[k], std::make_pair(k / n, k % n)) << "claim " << k;
  }

  // parallel_for and parallel_map order the same way; equal costs keep
  // listed order.
  const std::vector<double> flat{0.1, 0.3, 0.2, 0.3, -1.0};
  const std::vector<std::size_t> expected{1, 3, 2, 0, 4};
  std::vector<std::size_t> ran;
  parallel_for(5, [&](std::size_t i) { ran.push_back(i); }, flat);
  EXPECT_EQ(ran, expected);
  ran.clear();
  (void)parallel_map(
      5,
      [&](std::size_t i) {
        ran.push_back(i);
        return i;
      },
      flat);
  EXPECT_EQ(ran, expected);
}

TEST_F(ParallelTest, CostOrderLeavesEveryResultBitIdentical) {
  std::vector<double> cost;
  const std::vector<SweepKey> sweeps = fig9_shape(cost);
  auto bits_of = [&](const std::vector<double>& order_cost) {
    std::vector<std::uint64_t> bits;
    const auto out = run_checkpointed<double>({}, nullptr, sweeps, job_value,
                                              order_cost);
    for (const auto& sweep : out) {
      for (double v : sweep.results) {
        bits.push_back(std::bit_cast<std::uint64_t>(v));
      }
    }
    const auto mapped = parallel_map(
        cost.size(), [](std::size_t j) { return job_value(7, j); },
        order_cost);
    for (double v : mapped) bits.push_back(std::bit_cast<std::uint64_t>(v));
    return bits;
  };
  ThreadPool::set_global_concurrency(1);
  const std::vector<std::uint64_t> listed = bits_of({});
  for (unsigned threads : {1u, 3u, 4u}) {
    ThreadPool::set_global_concurrency(threads);
    EXPECT_EQ(bits_of(cost), listed) << threads << " threads";
  }
}

TEST_F(ParallelTest, BudgetedRunStoresTheSameJobsInAnyDispatchOrder) {
  // An interrupted `--max-new-jobs N` run must leave the records the listed
  // order leaves: the budget is taken in (sweep, index) order, before the
  // cost sort. 23 jobs end inside sweep 1.
  ThreadPool::set_global_concurrency(4);
  std::vector<double> cost;
  const std::vector<SweepKey> sweeps = fig9_shape(cost);
  auto stored = [&](const std::vector<double>& order_cost) {
    SweepCheckpoint ckpt;
    ckpt.directory = testutil::temp_path("store");
    ckpt.max_new_jobs = 23;
    SweepOutcome outcome;
    (void)run_checkpointed<double>(ckpt, &outcome, sweeps, job_value,
                                   order_cost);
    EXPECT_EQ(outcome.computed, 23u);
    std::vector<std::pair<std::size_t, std::size_t>> jobs;
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
      const CheckpointStore store(ckpt.directory, sweeps[s].fingerprint);
      for (std::size_t i = 0; i < sweeps[s].n; ++i) {
        if (store.contains(i)) jobs.emplace_back(s, i);
      }
    }
    return jobs;
  };
  const auto listed = stored({});
  ASSERT_EQ(listed.size(), 23u);
  for (std::size_t k = 0; k < listed.size(); ++k) {
    EXPECT_EQ(listed[k], std::make_pair(k / 19, k % 19));
  }
  EXPECT_EQ(stored(cost), listed);
}

TEST(ThreadPool, HonoursExplicitConcurrency) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 3u);
  std::atomic<int> hits{0};
  pool.for_each_index(10, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
}

TEST(ThreadPool, DefaultConcurrencyReadsEnvVar) {
  ASSERT_EQ(setenv("ETHSM_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_concurrency(), 3u);
  ASSERT_EQ(setenv("ETHSM_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);  // falls back to hardware
  ASSERT_EQ(unsetenv("ETHSM_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

TEST(ThreadPool, RejectsZeroGlobalConcurrency) {
  EXPECT_THROW(ThreadPool::set_global_concurrency(0), std::invalid_argument);
}

}  // namespace
}  // namespace ethsm::support
