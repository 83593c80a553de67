// Engine performance microbenchmarks (google-benchmark): simulator
// throughput, stationary-solver cost at different truncations, reward-case
// evaluation, uncle-candidate collection, and end-to-end experiment pieces.
// Not a paper artefact -- this guards the practicality of the harness (a full
// Fig. 8 regeneration runs 19 x 10 x 100k blocks through the simulator).
//
// Unless a --benchmark_out flag is given, results are written to
// BENCH_perf.json (google-benchmark JSON format, with hardware_concurrency
// recorded in the context) so the perf trajectory is tracked in-repo.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "analysis/revenue.h"
#include "analysis/solve_memo.h"
#include "analysis/threshold.h"
#include "analysis/uncle_distance.h"
#include "chain/uncle_index.h"
#include "markov/stationary.h"
#include "miner/honest_policy.h"
#include "miner/selfish_policy.h"
#include "net/event_queue.h"
#include "net/net_sim.h"
#include "sim/simulator.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/thread_pool.h"

// Process-wide heap-allocation counter (bench binary only): every operator
// new bumps it, so a benchmark can report allocations per unit of work. Used
// to pin the simulator hot loop at ~0 allocations per block now that
// Block::uncle_refs lives in the BlockTree arena and the policies reuse
// collection scratch.
std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

/// Guards the uncle-ref arena refactor: a steady-state 50k-block simulation
/// (thread-local tree already warm) must perform (almost) no heap allocation
/// per block -- uncle refs land in the tree arena, the policies reuse their
/// collection scratch, and the tree reuses node storage across runs. The
/// reported counter is allocations per mined block; pre-arena this sat at
/// >= 1 (one vector per block carrying uncle refs).
void BM_SimulatorAllocsPerBlock(benchmark::State& state) {
  ethsm::sim::SimConfig config;
  config.alpha = 0.35;
  config.gamma = 0.5;
  config.num_blocks = 50'000;
  config.seed = 7;
  // Warm the thread-local tree and ledger buffers once; the sweep drivers run
  // thousands of simulations per process, so steady state is what matters.
  benchmark::DoNotOptimize(ethsm::sim::run_simulation(config));

  std::uint64_t allocs = 0;
  std::uint64_t blocks = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(ethsm::sim::run_simulation(config));
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    blocks += config.num_blocks;
  }
  state.counters["allocs_per_block"] = benchmark::Counter(
      blocks == 0 ? 0.0
                  : static_cast<double>(allocs) / static_cast<double>(blocks));
  state.SetItemsProcessed(static_cast<std::int64_t>(blocks));
}
BENCHMARK(BM_SimulatorAllocsPerBlock)->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughput(benchmark::State& state) {
  ethsm::sim::SimConfig config;
  config.alpha = static_cast<double>(state.range(0)) / 100.0;
  config.gamma = 0.5;
  config.num_blocks = 50'000;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(ethsm::sim::run_simulation(config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.num_blocks));
}
BENCHMARK(BM_SimulatorThroughput)->Arg(10)->Arg(30)->Arg(45)
    ->Unit(benchmark::kMillisecond);

void BM_StationarySolve(benchmark::State& state) {
  const int max_lead = static_cast<int>(state.range(0));
  const ethsm::markov::StateSpace space(max_lead);
  const ethsm::markov::TransitionModel model(space, {0.4, 0.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ethsm::markov::solve_stationary(model));
  }
  state.SetLabel(std::to_string(space.size()) + " states");
}
BENCHMARK(BM_StationarySolve)->Arg(40)->Arg(80)->Arg(160)
    ->Unit(benchmark::kMillisecond);

/// The pre-CSR solver's array-of-structs edge list, rebuilt from the CSR rows
/// in the same entry order.
struct Edge {
  std::size_t from, to;
  double rate;
};

std::vector<Edge> edge_list(const ethsm::markov::TransitionModel& model) {
  std::vector<Edge> edges;
  const auto& row = model.row_offsets();
  for (std::size_t s = 0; s + 1 < row.size(); ++s) {
    for (std::uint32_t e = row[s]; e < row[s + 1]; ++e) {
      edges.push_back({s, static_cast<std::size_t>(model.columns()[e]),
                       model.rates()[e]});
    }
  }
  return edges;
}

/// The pre-CSR solver: power iteration over the array-of-structs edge list.
/// Kept as the baseline half of the CSR-vs-edge-list comparison so the gain
/// from row-contiguous structure-of-arrays iteration stays measured.
std::vector<double> solve_stationary_edge_list(const std::vector<Edge>& edges,
                                               std::size_t n, double tolerance,
                                               int max_iterations) {
  std::vector<double> pi(n, 0.0);
  std::vector<double> next(n, 0.0);
  pi[0] = 1.0;
  double diff = 1.0;
  for (int iter = 0; iter < max_iterations && diff > tolerance; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (const Edge& t : edges) next[t.to] += pi[t.from] * t.rate;
    diff = 0.0;
    for (std::size_t s = 0; s < n; ++s) diff += std::abs(next[s] - pi[s]);
    pi.swap(next);
  }
  ethsm::support::KahanSum total;
  for (double p : pi) total.add(p);
  for (double& p : pi) p /= total.value();
  return pi;
}

void BM_StationarySolveEdgeList(benchmark::State& state) {
  const int max_lead = static_cast<int>(state.range(0));
  const ethsm::markov::StateSpace space(max_lead);
  const ethsm::markov::TransitionModel model(space, {0.4, 0.5});
  const std::vector<Edge> edges = edge_list(model);
  const ethsm::markov::StationaryOptions defaults;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_stationary_edge_list(
        edges, static_cast<std::size_t>(space.size()), defaults.tolerance,
        defaults.max_iterations));
  }
  state.SetLabel(std::to_string(space.size()) + " states");
}
BENCHMARK(BM_StationarySolveEdgeList)->Arg(40)->Arg(80)->Arg(160)
    ->Unit(benchmark::kMillisecond);

/// The two explicit inner solvers side by side on the default-parameter chain
/// (BM_StationarySolve above runs `automatic`, which resolves to
/// Gauss-Seidel here). The GS/power real-time ratio is the raw-speed claim
/// the perf gate (tools/perf_gate.py) keeps honest.
void BM_StationarySolveGS(benchmark::State& state) {
  const int max_lead = static_cast<int>(state.range(0));
  const ethsm::markov::StateSpace space(max_lead);
  const ethsm::markov::TransitionModel model(space, {0.4, 0.5});
  ethsm::markov::StationaryOptions options;
  options.method = ethsm::markov::SolveMethod::gauss_seidel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ethsm::markov::solve_stationary(model, options));
  }
  state.SetLabel(std::to_string(space.size()) + " states");
}
BENCHMARK(BM_StationarySolveGS)
    ->Arg(40)->Arg(80)->Arg(160)->Arg(200)
    ->Unit(benchmark::kMillisecond);

/// BM_StationarySolveGS on an inline frozen copy of the Gauss-Seidel solve
/// it replaced: the plain CSC sweep, which re-reads pi[c-1] from memory and
/// multiplies every state by inv_diag, under the same doubling-schedule
/// convergence loop. Same chains and result bits, so the time ratio of the
/// two is the sweep's speedup on whatever machine runs them (CI gates that
/// ratio at max_lead 200; same precedent as
/// BM_ComputeRevenueKernelReference).
std::vector<double> reference_solve_gauss_seidel(
    const ethsm::markov::TransitionModel& model, double tolerance) {
  const auto& in = model.incoming();
  const auto n = static_cast<std::size_t>(model.space().size());
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> previous = pi;
  const auto sweep = [&] {
    for (std::size_t c = 0; c < n; ++c) {
      double inflow = 0.0;
      for (std::uint32_t e = in.col_offsets[c]; e < in.col_offsets[c + 1];
           ++e) {
        inflow += pi[static_cast<std::size_t>(in.source[e])] * in.rate[e];
      }
      pi[c] = inflow * in.inv_diag[c];
    }
  };
  double diff = 1.0;
  int interval = 1;
  while (diff > tolerance) {
    for (int b = 0; b < interval; ++b) sweep();
    interval = std::min(interval * 2, 8);
    double mass = 0.0;
    for (double p : pi) mass += p;
    const double inv_mass = 1.0 / mass;
    double change = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      pi[s] *= inv_mass;
      change += std::fabs(pi[s] - previous[s]);
    }
    diff = change;
    previous = pi;
  }
  ethsm::support::KahanSum total;
  for (double p : pi) total.add(p);
  for (double& p : pi) p /= total.value();
  return pi;
}

void BM_StationarySolveGSReference(benchmark::State& state) {
  const int max_lead = static_cast<int>(state.range(0));
  const ethsm::markov::StateSpace space(max_lead);
  const ethsm::markov::TransitionModel model(space, {0.4, 0.5});
  const double tolerance = ethsm::markov::StationaryOptions{}.tolerance;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_solve_gauss_seidel(model, tolerance));
  }
  state.SetLabel(std::to_string(space.size()) + " states");
}
BENCHMARK(BM_StationarySolveGSReference)
    ->Arg(40)->Arg(80)->Arg(160)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_StationarySolvePower(benchmark::State& state) {
  const int max_lead = static_cast<int>(state.range(0));
  const ethsm::markov::StateSpace space(max_lead);
  const ethsm::markov::TransitionModel model(space, {0.4, 0.5});
  ethsm::markov::StationaryOptions options;
  options.method = ethsm::markov::SolveMethod::power;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ethsm::markov::solve_stationary(model, options));
  }
  state.SetLabel(std::to_string(space.size()) + " states");
}
BENCHMARK(BM_StationarySolvePower)->Arg(40)->Arg(80)->Arg(160)
    ->Unit(benchmark::kMillisecond);

/// The corner the Gauss-Seidel solver exists for: large alpha, small gamma,
/// deep truncation (the private branch runs longest there). Arg 0 = GS,
/// Arg 1 = power; the iteration gap is ~an order of magnitude.
void BM_StationarySolveDeepCorner(benchmark::State& state) {
  const ethsm::markov::StateSpace space(300);
  const ethsm::markov::TransitionModel model(space, {0.45, 0.05});
  ethsm::markov::StationaryOptions options;
  options.method = state.range(0) == 0 ? ethsm::markov::SolveMethod::gauss_seidel
                                       : ethsm::markov::SolveMethod::power;
  int iterations = 0;
  for (auto _ : state) {
    const auto pi = ethsm::markov::solve_stationary(model, options);
    iterations = pi.iterations();
    benchmark::DoNotOptimize(pi.values().data());
  }
  state.counters["sweeps"] = benchmark::Counter(static_cast<double>(iterations));
  state.SetLabel(state.range(0) == 0 ? "gauss_seidel" : "power");
}
BENCHMARK(BM_StationarySolveDeepCorner)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Sweep-scale multi-run throughput vs thread count. The work per iteration
/// is fixed (8 runs x 20k blocks), so the ratio of the Arg(1) to Arg(N)
/// real-time numbers is the parallel speedup recorded in BENCH_perf.json.
void BM_RunManyParallel(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  ethsm::support::ThreadPool::set_global_concurrency(threads);
  ethsm::sim::SimConfig config;
  config.alpha = 0.35;
  config.gamma = 0.5;
  config.num_blocks = 20'000;
  constexpr int kRuns = 8;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(ethsm::sim::run_many({config}, kRuns));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRuns *
                          static_cast<std::int64_t>(config.num_blocks));
  ethsm::support::ThreadPool::set_global_concurrency(
      ethsm::support::ThreadPool::default_concurrency());
}
BENCHMARK(BM_RunManyParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// compute_revenue end to end: state space, transition model, solve and
/// kernel. Each iteration goes through a fresh solve memo, so every one
/// solves, as the process memo's first request for a chain does.
void BM_RevenueBreakdown(benchmark::State& state) {
  const auto config = ethsm::rewards::RewardConfig::ethereum_byzantium();
  for (auto _ : state) {
    ethsm::analysis::SolveMemo memo;
    benchmark::DoNotOptimize(memo.revenue({0.35, 0.5}, config, 80, nullptr));
  }
}
BENCHMARK(BM_RevenueBreakdown)->Unit(benchmark::kMillisecond);

/// The kind-batched revenue kernel in isolation: model and stationary vector
/// prebuilt, so the loop times exactly the weighted-sum integration that
/// runs once per sweep cell. items/s counts CSR entries consumed.
void BM_ComputeRevenueKernel(benchmark::State& state) {
  const auto config = ethsm::rewards::RewardConfig::ethereum_byzantium();
  const ethsm::markov::StateSpace space(static_cast<int>(state.range(0)));
  const ethsm::markov::TransitionModel model(space, {0.35, 0.5});
  const auto pi = ethsm::markov::solve_stationary(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ethsm::analysis::compute_revenue(pi, model, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.rates().size()));
  state.SetLabel(std::to_string(model.rates().size()) + " entries");
}
BENCHMARK(BM_ComputeRevenueKernel)->Arg(80)->Arg(300);

/// Baseline half of the kernel comparison: the pre-batching per-entry
/// switch + Kahan loop (the frozen copy in tests/kernel/reference_engines.cpp
/// is the correctness reference; this inline copy is the perf baseline, same
/// precedent as solve_stationary_edge_list above).
void BM_ComputeRevenueKernelReference(benchmark::State& state) {
  const auto config = ethsm::rewards::RewardConfig::ethereum_byzantium();
  const ethsm::markov::StateSpace space(static_cast<int>(state.range(0)));
  const ethsm::markov::TransitionModel model(space, {0.35, 0.5});
  const auto pi = ethsm::markov::solve_stationary(model);
  for (auto _ : state) {
    ethsm::support::KahanSum pool_static, pool_uncle, pool_nephew;
    ethsm::support::KahanSum honest_static, honest_uncle, honest_nephew;
    ethsm::support::KahanSum regular_rate, uncle_rate;
    const int n = model.space().size();
    const auto& row = model.row_offsets();
    const auto& rate = model.rates();
    const auto& kind = model.kinds();
    for (int s = 0; s < n; ++s) {
      const double mass = pi[s];
      if (mass == 0.0) continue;
      const ethsm::markov::State& st = model.space().state_at(s);
      for (std::uint32_t k = row[static_cast<std::size_t>(s)];
           k < row[static_cast<std::size_t>(s) + 1]; ++k) {
        const double weight = mass * rate[k];
        if (weight == 0.0) continue;
        const ethsm::analysis::RewardFlow flow = ethsm::analysis::expected_rewards(
            st, kind[k], model.params(), config);
        pool_static.add(weight * flow.pool_static);
        pool_uncle.add(weight * flow.pool_uncle);
        pool_nephew.add(weight * flow.pool_nephew);
        honest_static.add(weight * flow.honest_static);
        honest_uncle.add(weight * flow.honest_uncle);
        honest_nephew.add(weight * flow.honest_nephew);
        regular_rate.add(weight * flow.regular_probability);
        uncle_rate.add(weight * flow.referenced_uncle_probability);
      }
    }
    benchmark::DoNotOptimize(pool_static.value() + honest_static.value() +
                             pool_uncle.value() + uncle_rate.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.rates().size()));
  state.SetLabel(std::to_string(model.rates().size()) + " entries");
}
BENCHMARK(BM_ComputeRevenueKernelReference)->Arg(80)->Arg(300);

void BM_ThresholdSearch(benchmark::State& state) {
  const auto config = ethsm::rewards::RewardConfig::ethereum_byzantium();
  ethsm::analysis::ThresholdOptions opt;
  opt.tolerance = 1e-4;
  opt.max_lead = 60;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ethsm::analysis::profitability_threshold(
        0.5, config, ethsm::sim::Scenario::regular_rate_one, opt));
  }
}
BENCHMARK(BM_ThresholdSearch)->Unit(benchmark::kMillisecond);

void BM_MetricsCounterHotPath(benchmark::State& state) {
  // The observability layer's overhead contract: one Counter::add() is one
  // relaxed fetch_add on a thread-striped cell, cheap enough to sit on the
  // sweep hot path. The perf gate pins this so a future "small" change to
  // the metrics layer cannot silently tax every instrumented loop.
  ethsm::support::metrics::Counter counter;
  for (auto _ : state) {
    counter.add();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterHotPath);

/// A chain with a stale sibling every 3 blocks: realistic candidate load.
ethsm::chain::BlockTree periodic_stale_tree() {
  ethsm::chain::BlockTree tree;
  ethsm::chain::BlockId tip = tree.genesis();
  for (int i = 0; i < 1000; ++i) {
    if (i % 3 == 0) {
      const auto stale = tree.append(tip, ethsm::chain::MinerClass::honest, 0,
                                     i + 0.5);
      tree.publish(stale, i + 0.5);
    }
    const auto next =
        tree.append(tip, ethsm::chain::MinerClass::honest, 0, i + 1.0);
    tree.publish(next, i + 1.0);
    tip = next;
  }
  return tree;
}

/// The tree a selfish pool with alpha = 0.35 and honest miners grow: forks
/// at most heights, withheld blocks, uncles referenced up to distance 6.
ethsm::chain::BlockTree selfish_tree() {
  const auto config = ethsm::rewards::RewardConfig::ethereum_byzantium();
  ethsm::chain::BlockTree tree(5001);
  ethsm::miner::SelfishPolicy pool(tree, config);
  ethsm::miner::HonestPolicy honest(0.5, config);
  ethsm::support::Xoshiro256 rng(7);
  double now = 0.0;
  for (int i = 0; i < 5000; ++i) {
    now += 1.0;
    if (rng.bernoulli(0.35)) {
      pool.on_pool_block(now);
    } else {
      const auto b = honest.mine_block(
          tree, honest.choose_parent(pool.public_view(), rng), now, 0);
      pool.on_honest_block(b, now);
    }
  }
  return tree;
}

/// Baseline half of the uncle-window comparison: the search as it stood
/// before the per-height fork counts -- every window ancestor walked twice,
/// their refs gathered, every child list scanned, std::find per child and a
/// sort (the frozen copy in tests/kernel/reference_engines.cpp is the
/// correctness reference; this inline copy is the perf baseline, same
/// precedent as BM_ComputeRevenueKernelReference).
struct ReferenceUncleScratch {
  std::vector<ethsm::chain::UncleCandidate> candidates;
  std::vector<ethsm::chain::BlockId> referenced;
  std::vector<ethsm::chain::BlockId> refs;
};

void reference_collect_uncle_references(const ethsm::chain::BlockTree& tree,
                                        ethsm::chain::BlockId parent,
                                        int horizon,
                                        ReferenceUncleScratch& scratch) {
  using ethsm::chain::BlockId;
  auto& out = scratch.candidates;
  out.clear();
  scratch.refs.clear();
  if (horizon == 0) return;
  const auto for_each_window_ancestor = [&](auto&& fn) {
    BlockId cur = parent;
    for (int steps = 0; steps <= horizon; ++steps) {
      fn(cur);
      if (cur == tree.genesis()) break;
      cur = tree.parent(cur);
    }
  };
  const std::uint32_t new_height = tree.height(parent) + 1;
  auto& already_referenced = scratch.referenced;
  already_referenced.clear();
  for_each_window_ancestor([&](BlockId anc) {
    const auto refs = tree.uncle_refs(anc);
    already_referenced.insert(already_referenced.end(), refs.begin(),
                              refs.end());
  });
  BlockId on_chain_child = ethsm::chain::kNoBlock;
  for_each_window_ancestor([&](BlockId anc) {
    for (BlockId child : tree.children(anc)) {
      if (child == on_chain_child || child == parent) continue;
      if (!tree.is_published(child)) continue;
      if (std::find(already_referenced.begin(), already_referenced.end(),
                    child) != already_referenced.end()) {
        continue;
      }
      const int distance = static_cast<int>(new_height - tree.height(child));
      if (distance < 1 || distance > horizon) continue;
      out.push_back(ethsm::chain::UncleCandidate{child, distance});
    }
    on_chain_child = anc;
  });
  std::sort(out.begin(), out.end(), [&tree](const auto& a, const auto& b) {
    if (tree.height(a.id) != tree.height(b.id)) {
      return tree.height(a.id) < tree.height(b.id);
    }
    return a.id < b.id;
  });
  for (const auto& c : out) scratch.refs.push_back(c.id);
}

void BM_UncleCandidateCollection(benchmark::State& state) {
  const auto tree = periodic_stale_tree();
  const auto tip = static_cast<ethsm::chain::BlockId>(tree.size() - 1);
  for (auto _ : state) {
    ethsm::chain::UncleScratch scratch;  // fresh buffers: counts the allocation
    ethsm::chain::collect_uncle_references(tree, tip, 6, 0, scratch);
    benchmark::DoNotOptimize(scratch.refs);
  }
}
BENCHMARK(BM_UncleCandidateCollection);

void BM_UncleCandidateCollectionReference(benchmark::State& state) {
  const auto tree = periodic_stale_tree();
  const auto tip = static_cast<ethsm::chain::BlockId>(tree.size() - 1);
  for (auto _ : state) {
    ReferenceUncleScratch scratch;  // fresh buffers, as above
    reference_collect_uncle_references(tree, tip, 6, scratch);
    benchmark::DoNotOptimize(scratch.refs);
  }
}
BENCHMARK(BM_UncleCandidateCollectionReference);

/// The hot-path form: one query per block of a selfish-mining tree, on the
/// block's parent, with reused scratch. Items are queries.
void BM_UncleCandidateCollectionSelfish(benchmark::State& state) {
  const auto tree = selfish_tree();
  ethsm::chain::UncleScratch scratch;
  for (auto _ : state) {
    for (ethsm::chain::BlockId b = 1; b < tree.size(); ++b) {
      ethsm::chain::collect_uncle_references(tree, tree.parent(b), 6, 0,
                                             scratch);
      benchmark::DoNotOptimize(scratch.refs.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tree.size() - 1));
}
BENCHMARK(BM_UncleCandidateCollectionSelfish);

void BM_UncleCandidateCollectionSelfishReference(benchmark::State& state) {
  const auto tree = selfish_tree();
  ReferenceUncleScratch scratch;
  for (auto _ : state) {
    for (ethsm::chain::BlockId b = 1; b < tree.size(); ++b) {
      reference_collect_uncle_references(tree, tree.parent(b), 6, scratch);
      benchmark::DoNotOptimize(scratch.refs.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tree.size() - 1));
}
BENCHMARK(BM_UncleCandidateCollectionSelfishReference);

void BM_SelfishPolicyStep(benchmark::State& state) {
  const auto config = ethsm::rewards::RewardConfig::ethereum_byzantium();
  ethsm::support::Xoshiro256 rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    ethsm::chain::BlockTree tree(2100);
    ethsm::miner::SelfishPolicy pool(tree, config);
    ethsm::miner::HonestPolicy honest(0.5, config);
    state.ResumeTiming();
    double now = 0.0;
    for (int i = 0; i < 2000; ++i) {
      now += 1.0;
      if (rng.bernoulli(0.35)) {
        pool.on_pool_block(now);
      } else {
        const auto b = honest.mine_block(
            tree, honest.choose_parent(pool.public_view(), rng), now, 0);
        pool.on_honest_block(b, now);
      }
    }
    benchmark::DoNotOptimize(pool.finalize(now));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_SelfishPolicyStep)->Unit(benchmark::kMillisecond);

void BM_UncleDistanceDistribution(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ethsm::analysis::honest_uncle_distance_distribution({0.45, 0.5}, 80));
  }
}
BENCHMARK(BM_UncleDistanceDistribution)->Unit(benchmark::kMillisecond);

/// Raw event-queue throughput (src/net) with ~1k events in flight,
/// interleaving pushes and pops the way the network simulator does; `delay`
/// draws each event's time after the one just popped (after 0 for the
/// initial fill). A queue micro-benchmark only: no gate or sweep reads it,
/// and whole net runs are timed by BM_NetSimRealistic.
template <typename Delay>
void event_queue_throughput(benchmark::State& state, Delay delay) {
  ethsm::net::EventQueue<std::uint64_t> queue;
  ethsm::support::Xoshiro256 rng(42);
  constexpr int kInFlight = 1'000;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    queue.reset();
    double now = 0.0;
    for (int i = 0; i < kInFlight; ++i) {
      queue.push(delay(rng), static_cast<std::uint64_t>(i));
    }
    for (int i = 0; i < 20'000; ++i) {
      const auto entry = queue.pop();
      now = entry.time;
      benchmark::DoNotOptimize(entry.payload);
      queue.push(now + delay(rng), entry.payload);
    }
    ops += 20'000 + kInFlight;
  }
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}

/// Exponential delays: events arrive in random order, so many pushes take
/// the heap lane.
void BM_EventQueueThroughput(benchmark::State& state) {
  event_queue_throughput(state, [](ethsm::support::Xoshiro256& rng) {
    return rng.exponential(1.0);
  });
}
BENCHMARK(BM_EventQueueThroughput)->Unit(benchmark::kMillisecond);

/// Fixed delay, as on fixed-latency links: every push lands in order (the
/// FIFO lane).
void BM_EventQueueThroughputFixedDelay(benchmark::State& state) {
  event_queue_throughput(state,
                         [](ethsm::support::Xoshiro256&) { return 1.0; });
}
BENCHMARK(BM_EventQueueThroughputFixedDelay)->Unit(benchmark::kMillisecond);

/// End-to-end network-simulator throughput: one 10k-block run on the default
/// zero-latency complete graph, reporting both blocks and discrete events per
/// second (gossip messages dominate; ~E announces + N request/deliver pairs
/// per block).
void BM_NetSimulatorEventsPerSec(benchmark::State& state) {
  ethsm::net::NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 16;
  config.num_blocks = 10'000;
  config.seed = 7;
  std::uint64_t events = 0;
  std::uint64_t blocks = 0;
  for (auto _ : state) {
    const auto result = ethsm::net::run_net_simulation(config);
    events += result.events_processed;
    blocks += config.num_blocks;
    benchmark::DoNotOptimize(result.race_samples);
  }
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["blocks_per_sec"] = benchmark::Counter(
      static_cast<double>(blocks), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetSimulatorEventsPerSec)->Unit(benchmark::kMillisecond);

/// One run as the artefact's `net_faults` cell makes it (alpha 0.3, 30k
/// blocks, 12 honest nodes, fixed:140 links, 5% drop, 70000:14000 churn; the
/// cell's first seed). Unlike the 0 ms run above, every message crosses the
/// event queue, so this is the net engine's cost in the full artefact.
void BM_NetSimRealistic(benchmark::State& state) {
  ethsm::net::NetSimConfig config;
  config.alpha = 0.3;
  config.honest_nodes = 12;
  config.latency = ethsm::net::parse_latency_spec("fixed:140");
  config.faults.drop = 0.05;
  config.faults.churn = ethsm::net::parse_churn_spec("70000:14000");
  config.num_blocks = 30'000;
  config.seed = ethsm::support::derive_seed(0x9e7ca57ULL, 0);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = ethsm::net::run_net_simulation(config);
    events += result.events_processed;
    benchmark::DoNotOptimize(result.race_samples);
  }
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetSimRealistic)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Default the output to BENCH_perf.json unless the caller chose a sink;
  // the storage lives here so the char* argv stays valid through Initialize.
  std::vector<std::string> arg_storage(argv, argv + argc);
  bool has_out = false;
  for (const std::string& a : arg_storage) {
    if (a == "--benchmark_out" || a.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    arg_storage.push_back("--benchmark_out=BENCH_perf.json");
    arg_storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(arg_storage.size());
  for (std::string& a : arg_storage) args.push_back(a.data());
  int args_count = static_cast<int>(args.size());

  benchmark::Initialize(&args_count, args.data());
  benchmark::AddCustomContext(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext(
      "ethsm_default_threads",
      std::to_string(ethsm::support::ThreadPool::default_concurrency()));
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
