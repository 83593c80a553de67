// Differential lockdown of the solve memo behind analysis::compute_revenue
// (ctest -L kernel): every revenue that comes out of the memo -- cold or
// warm-started along a bisection, solved here, waited for, or priced from a
// cached entry -- must equal a direct solve_stationary + compute_revenue on
// the same inputs, bit for bit. Keys that differ in any input bit miss.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/absolute_revenue.h"
#include "analysis/revenue.h"
#include "analysis/solve_memo.h"
#include "analysis/threshold.h"
#include "api/spec.h"
#include "markov/stationary.h"
#include "support/math_util.h"
#include "support/parallel.h"
#include "support/thread_pool.h"

namespace ethsm {
namespace {

using analysis::RevenueBreakdown;
using analysis::RevenueCache;
using analysis::SolveMemo;
using markov::MiningParams;
using rewards::RewardConfig;

/// Bitwise equality of every field (memcmp, so -0.0 != 0.0 and NaN == NaN).
void expect_bitwise(const RevenueBreakdown& got, const RevenueBreakdown& want) {
  static_assert(sizeof(RevenueBreakdown) == 8 * sizeof(double));
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(RevenueBreakdown)), 0)
      << "pool_static " << got.pool_static << " vs " << want.pool_static
      << ", honest_static " << got.honest_static << " vs "
      << want.honest_static;
}

/// The revenue without any memo: what compute_revenue computed before the
/// memo existed, for a cold solve and for a warm-started chain.
struct DirectChain {
  std::unique_ptr<markov::StateSpace> space;
  std::vector<double> last_pi;

  RevenueBreakdown revenue(const MiningParams& params,
                           const RewardConfig& config, int max_lead) {
    if (!space || space->max_lead() != max_lead) {
      space = std::make_unique<markov::StateSpace>(max_lead);
      last_pi.clear();
    }
    const markov::TransitionModel model(*space, params);
    markov::StationaryOptions options;
    if (!last_pi.empty()) options.initial = &last_pi;
    const auto pi = markov::solve_stationary(model, options);
    last_pi = pi.values();
    return analysis::compute_revenue(pi, model, config);
  }
};

RevenueBreakdown direct_cold(const MiningParams& params,
                             const RewardConfig& config, int max_lead) {
  return DirectChain{}.revenue(params, config, max_lead);
}

std::vector<RewardConfig> schedules() {
  return {api::parse_reward_spec("byzantium"),
          api::parse_reward_spec("flat:0.5"),
          api::parse_reward_spec("table:0.9,0.4,0.2,0.1")};
}

/// The bisections below stop short of alpha = 1/2, where the gamma = 0 chain
/// at max_lead 200 needs thousands of sweeps per solve.
analysis::ThresholdOptions bisection_options(int max_lead) {
  analysis::ThresholdOptions options;
  options.alpha_max = 0.45;
  options.tolerance = 1e-3;
  options.max_lead = max_lead;
  return options;
}

/// One scenario's bisection replayed through `objective`, as
/// analysis::profitability_threshold runs it; returns the threshold.
std::optional<double> replay_threshold_search(
    const std::function<RevenueBreakdown(double)>& objective,
    analysis::Scenario scenario, const analysis::ThresholdOptions& options) {
  return support::first_true_report(
             [&](double alpha) {
               return analysis::pool_absolute_revenue(objective(alpha),
                                                      scenario) -
                          alpha >=
                      0.0;
             },
             options.alpha_min, options.alpha_max, options.tolerance)
      .value;
}

TEST(KernelSolveMemo, ColdSolvesMatchDirectAndRepeatsHit) {
  SolveMemo memo;
  std::uint64_t requests = 0;
  for (const int max_lead : {8, 60, 200}) {
    const markov::StateSpace space(max_lead);
    for (const double gamma : {0.0, 0.5, 1.0}) {
      for (const double alpha : {0.1, 0.25, 0.4}) {
        const MiningParams params{alpha, gamma};
        const markov::TransitionModel model(space, params);
        const auto pi = markov::solve_stationary(model);
        // Every schedule prices the same chain: one solve, then hits.
        for (const RewardConfig& config : schedules()) {
          expect_bitwise(memo.revenue(params, config, max_lead, nullptr),
                         analysis::compute_revenue(pi, model, config));
          ++requests;
        }
      }
    }
  }
  EXPECT_EQ(memo.stats().solves, 3u * 3u * 3u);
  EXPECT_EQ(memo.stats().hits, requests - memo.stats().solves);
  EXPECT_EQ(memo.stats().evictions, 0u);
}

TEST(KernelSolveMemo, ReplayedBisectionsMatchDirectChains) {
  // Every (max_lead, gamma) pair, the schedules taking turns across them.
  const std::vector<RewardConfig> configs = schedules();
  std::size_t turn = 0;
  for (const int max_lead : {8, 60, 200}) {
    for (const double gamma : {0.0, 0.5, 1.0}) {
      const RewardConfig& config = configs[turn++ % configs.size()];
      SolveMemo memo;
      const analysis::ThresholdOptions options = bisection_options(max_lead);
      for (const analysis::Scenario scenario :
           {analysis::Scenario::regular_rate_one,
            analysis::Scenario::regular_and_uncle_rate_one}) {
        // The memo and the direct chain see the same alpha sequence, so
        // each step's revenue must match bitwise, warm starts included.
        RevenueCache cache;
        DirectChain direct;
        const auto through_memo = replay_threshold_search(
            [&](double alpha) {
              const MiningParams params{alpha, gamma};
              const RevenueBreakdown got =
                  memo.revenue(params, config, max_lead, &cache);
              expect_bitwise(got, direct.revenue(params, config, max_lead));
              return got;
            },
            scenario, options);
        EXPECT_EQ(through_memo, analysis::profitability_threshold(
                                    gamma, config, scenario, options));
      }
      // Scenario 2's bisection starts down scenario 1's path.
      EXPECT_GT(memo.stats().hits, 0u) << "max_lead " << max_lead << " gamma "
                                 << gamma;
    }
  }
}

TEST(KernelSolveMemo, ConcurrentIdenticalRequestsSolveOnce) {
  SolveMemo memo;
  const RewardConfig config = RewardConfig::ethereum_byzantium();
  // A solve long enough (~0.1 s) for the jobs to overlap it.
  const MiningParams params{0.4, 0.5};
  const RevenueBreakdown want = direct_cold(params, config, 200);

  constexpr std::size_t kJobs = 16;
  std::vector<RevenueBreakdown> cold(kJobs);
  support::parallel_for(kJobs, [&](std::size_t j) {
    cold[j] = memo.revenue(params, config, 200, nullptr);
  });
  for (const RevenueBreakdown& r : cold) expect_bitwise(r, want);
  EXPECT_EQ(memo.stats().solves, 1u);
  EXPECT_EQ(memo.stats().hits, kJobs - 1);  // waiters included
  EXPECT_LE(memo.stats().waits, kJobs - 1);

  // The same three-step chain from every job: three solves in all.
  const std::vector<double> alphas{0.2, 0.35, 0.3};
  DirectChain direct;
  std::vector<RevenueBreakdown> want_chain;
  for (double a : alphas) {
    want_chain.push_back(direct.revenue({a, 0.5}, config, 60));
  }
  std::vector<std::vector<RevenueBreakdown>> chains(kJobs);
  support::parallel_for(kJobs, [&](std::size_t j) {
    RevenueCache cache;
    for (double a : alphas) {
      chains[j].push_back(memo.revenue({a, 0.5}, config, 60, &cache));
    }
  });
  for (const auto& chain : chains) {
    ASSERT_EQ(chain.size(), alphas.size());
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      expect_bitwise(chain[i], want_chain[i]);
    }
  }
  EXPECT_EQ(memo.stats().solves, 1u + alphas.size());
}

TEST(KernelSolveMemo, TinyBudgetEvictsAndStaysExact) {
  // 8 KiB holds a few weights-only entries and no max_lead-60 pi (~15 KB),
  // so chain entries are evicted as soon as they land; the chain still
  // warm-starts from the vector its RevenueCache holds.
  SolveMemo memo(8 << 10);
  const RewardConfig config = RewardConfig::ethereum_byzantium();
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 1; i <= 20; ++i) {
      const MiningParams params{0.02 * i, 0.5};
      expect_bitwise(memo.revenue(params, config, 60, nullptr),
                     direct_cold(params, config, 60));
      EXPECT_LE(memo.stats().bytes, std::size_t{8} << 10);
    }
  }
  EXPECT_GT(memo.stats().evictions, 0u);
  EXPECT_GT(memo.stats().solves, 20u);  // the second pass re-solved evicted keys

  RevenueCache cache;
  DirectChain direct;
  for (const double alpha : {0.3, 0.25, 0.28, 0.27}) {
    const MiningParams params{alpha, 0.0};
    expect_bitwise(memo.revenue(params, config, 60, &cache),
                   direct.revenue(params, config, 60));
  }
}

TEST(KernelSolveMemo, KeysDifferingInPathOrSignOfZeroMiss) {
  SolveMemo memo;
  const RewardConfig config = RewardConfig::ethereum_byzantium();

  // Same (alpha, gamma), different chain paths: a cold solve, and the same
  // point reached after a warm start from alpha = 0.2.
  const MiningParams point{0.3, 0.5};
  expect_bitwise(memo.revenue(point, config, 60, nullptr),
                 direct_cold(point, config, 60));
  RevenueCache cache;
  DirectChain direct;
  for (const double alpha : {0.2, 0.3}) {
    const MiningParams params{alpha, 0.5};
    expect_bitwise(memo.revenue(params, config, 60, &cache),
                   direct.revenue(params, config, 60));
  }
  // 0.3 cold (no pi), 0.2 cold with pi, then 0.3 warm from 0.2.
  EXPECT_EQ(memo.stats().solves, 3u);
  EXPECT_EQ(memo.stats().hits, 0u);

  // The same cold key asked for with a cache needs pi, which the
  // weights-only entry lacks: it is solved once more and then carries pi.
  RevenueCache fresh;
  expect_bitwise(memo.revenue(point, config, 60, &fresh),
                 direct_cold(point, config, 60));
  EXPECT_EQ(memo.stats().solves, 4u);
  expect_bitwise(memo.revenue(point, config, 60, nullptr),
                 direct_cold(point, config, 60));
  EXPECT_EQ(memo.stats().hits, 1u);

  // gamma = 0.0 and gamma = -0.0 compare equal but are different keys.
  const MiningParams plus{0.3, 0.0};
  const MiningParams minus{0.3, -0.0};
  expect_bitwise(memo.revenue(plus, config, 60, nullptr),
                 direct_cold(plus, config, 60));
  expect_bitwise(memo.revenue(minus, config, 60, nullptr),
                 direct_cold(minus, config, 60));
  EXPECT_EQ(memo.stats().solves, 6u);

  // So are two truncations of the same point.
  expect_bitwise(memo.revenue(plus, config, 61, nullptr),
                 direct_cold(plus, config, 61));
  EXPECT_EQ(memo.stats().solves, 7u);
}

TEST(KernelSolveMemo, FailedSolveLeavesNoEntry) {
  SolveMemo memo;
  const RewardConfig config = RewardConfig::ethereum_byzantium();
  // max_lead 1 is refused by the state space; every request fails, none
  // waits forever and none is answered from a failed solve.
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_ANY_THROW((void)memo.revenue({0.3, 0.5}, config, 1, nullptr));
    EXPECT_EQ(memo.stats().entries, 0u);
  }
  EXPECT_EQ(memo.stats().solves, 0u);
  EXPECT_EQ(memo.stats().hits, 0u);
}

}  // namespace
}  // namespace ethsm
