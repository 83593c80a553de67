// parallel_for / parallel_map on the process-wide thread pool.
//
// Determinism contract (relied on by run_seeded, revenue_curve & friends):
// jobs are pure functions of their index, results land in an index-ordered
// vector, and any order-sensitive reduction is the caller's to perform
// serially afterwards. Under that discipline every aggregate is
// bitwise-identical whether the pool has 1 thread or 64. Dispatch order is
// the driver's (costliest first, given cost estimates); which thread runs a
// job, and when, is the pool's. Key and absorb order are the caller's, and
// never depend on either.

#ifndef ETHSM_SUPPORT_PARALLEL_H
#define ETHSM_SUPPORT_PARALLEL_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/checkpoint.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace ethsm::support {

/// Runs fn(i) for every i in [0, n) on the global pool; blocks until done.
/// Given `cost` (one estimate per job), the jobs are claimed highest cost
/// first, ties in listed order, so that the slowest job does not start last
/// and run alone while the other threads idle.
template <typename F>
void parallel_for(std::size_t n, F&& fn,
                  const std::vector<double>& cost = {}) {
  ETHSM_EXPECTS(cost.empty() || cost.size() == n, "one cost per job");
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return !cost.empty() && cost[a] > cost[b];
  });
  ThreadPool::global().for_each_index(n, [&](std::size_t k) { fn(order[k]); });
}

/// Maps i -> fn(i) into a vector with results at their job index. The result
/// type must be default-constructible (job slots are pre-allocated so no
/// synchronisation is needed on the output), claimed in parallel_for's cost
/// order. Each job is one `sweep.job` trace span, as in run_checkpointed.
template <typename F>
[[nodiscard]] auto parallel_map(std::size_t n, F&& fn,
                                const std::vector<double>& cost = {}) {
  using Result = std::decay_t<std::invoke_result_t<F&, std::size_t>>;
  static_assert(std::is_default_constructible_v<Result>,
                "parallel_map pre-allocates result slots");
  std::vector<Result> results(n);
  parallel_for(n, [&](std::size_t i) {
    trace::Span span("sweep.job");
    results[i] = fn(i);
  }, cost);
  return results;
}

/// Result of a checkpointed sweep: an index-ordered result vector plus a
/// per-index availability mask (an index can be unavailable only when the
/// sweep is sharded or job-budgeted; an unsharded, unbudgeted run is always
/// complete).
template <typename Result>
struct CheckpointedSweep {
  std::vector<Result> results;  ///< size n; valid where have[i] != 0
  std::vector<char> have;       ///< char, not bool: parallel writers
};

/// One sweep of a batched region: the checkpoint key its records live under
/// and its job count.
struct SweepKey {
  std::uint64_t fingerprint = 0;
  std::size_t n = 0;
};

/// Merges one region's progress into `*outcome`. A region left incomplete
/// (some jobs belong to other shards or exceed the job budget) is refused
/// unless the caller passed `outcome` to inspect: a partial result must
/// never pass for a whole one.
inline void report_progress(SweepOutcome* outcome,
                            const SweepOutcome& progress) {
  ETHSM_EXPECTS(outcome != nullptr || progress.complete(),
                "incomplete sharded/budgeted sweep: pass a SweepOutcome to "
                "consume partial results");
  if (outcome != nullptr) outcome->merge(progress);
}

/// parallel_map with persistence, over a list of sweeps at once: job
/// (s, i) is fn(s, i), and every pending job of every sweep runs in ONE pool
/// region, so a cell's sweeps never wait on each other's stragglers. Jobs
/// already present in sweep s's checkpoint store (keyed by its fingerprint)
/// are decoded instead of recomputed; the rest, restricted to this process's
/// shard (ShardSpec::owns(fingerprint, i)) and to ONE job budget taken in
/// (sweep, index) order, run on the pool, each result appended to its
/// sweep's store as it completes, so an interrupted region resumes where it
/// stopped. The pool claims them in parallel_for's order of their `cost`
/// entries (empty, or one per job of the list, sweep after sweep). Because
/// jobs are pure functions of (s, i) and payloads are raw bit patterns,
/// results land at their (s, i) slot bitwise-identical to a
/// fresh, unsharded, single-threaded run; which thread runs a job, and when,
/// never shows. A sweep whose fingerprint repeats an earlier one in the
/// list shares that sweep's store and results (counted as loaded, as if it
/// had run after it). Each fingerprint must cover every parameter its jobs
/// depend on; records from other fingerprints in the same directory are
/// ignored.
///
/// If a job throws, the region still drains: every other job finishes and
/// is appended, then the first error is rethrown, so a rerun resumes from
/// everything that completed. Progress (summed over the list) goes through
/// report_progress.
///
/// With checkpointing disabled (`!ckpt.enabled()`) this is exactly
/// parallel_map over the flattened list: sharding and budgets only apply
/// when there is a store to merge partial results through.
template <typename Result, typename F>
[[nodiscard]] std::vector<CheckpointedSweep<Result>> run_checkpointed(
    const SweepCheckpoint& ckpt, SweepOutcome* outcome,
    const std::vector<SweepKey>& sweeps, F&& fn,
    const std::vector<double>& cost = {}) {
  static_assert(std::is_default_constructible_v<Result>,
                "run_checkpointed pre-allocates result slots");
  struct Job {
    std::size_t sweep = 0;
    std::size_t index = 0;
  };
  std::vector<CheckpointedSweep<Result>> out(sweeps.size());
  std::vector<std::unique_ptr<CheckpointStore>> stores(sweeps.size());
  std::vector<std::size_t> owner(sweeps.size());  // first sweep with its key
  std::vector<Job> todo;
  std::vector<double> todo_cost;  // cost's entries for todo, when given
  SweepOutcome progress;

  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    const std::size_t n = sweeps[s].n;
    const std::size_t first = progress.jobs_total;  // job (s, 0) in `cost`
    auto add = [&](std::size_t i) {
      todo.push_back({s, i});
      if (!cost.empty()) todo_cost.push_back(cost.at(first + i));
    };
    out[s].results.resize(n);
    out[s].have.assign(n, 0);
    progress.jobs_total += n;
    owner[s] = s;
    if (!ckpt.enabled()) {
      for (std::size_t i = 0; i < n; ++i) add(i);
      continue;
    }
    for (std::size_t t = 0; t < s; ++t) {
      if (sweeps[t].fingerprint == sweeps[s].fingerprint) {
        ETHSM_EXPECTS(sweeps[t].n == n, "one fingerprint, two job counts");
        owner[s] = t;
        break;
      }
    }
    if (owner[s] != s) continue;
    stores[s] = std::make_unique<CheckpointStore>(
        ckpt.directory, sweeps[s].fingerprint, ckpt.shard);
    for (std::size_t i = 0; i < n; ++i) {
      if (stores[s]->contains(i)) {
        ByteReader reader(stores[s]->payload(i));
        out[s].results[i] = CheckpointCodec<Result>::decode(reader);
        out[s].have[i] = 1;
        ++progress.loaded;
      } else if (ckpt.shard.owns(sweeps[s].fingerprint, i) &&
                 todo.size() < ckpt.max_new_jobs) {
        add(i);
      }
    }
  }

  parallel_for(todo.size(), [&](std::size_t k) {
    trace::Span span("sweep.job");
    const Job job = todo[k];
    Result result = fn(job.sweep, job.index);
    if (stores[job.sweep]) {
      ByteWriter writer;
      CheckpointCodec<Result>::encode(writer, result);
      stores[job.sweep]->append(job.index, writer.bytes());  // thread-safe
    }
    out[job.sweep].results[job.index] = std::move(result);
    out[job.sweep].have[job.index] = 1;
  }, todo_cost);
  progress.computed = todo.size();

  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    if (owner[s] == s) continue;
    out[s] = out[owner[s]];
    for (const char have : out[s].have) progress.loaded += have != 0 ? 1 : 0;
  }
  progress.skipped = progress.jobs_total - progress.loaded - progress.computed;
  report_progress(outcome, progress);
  return out;
}

/// `runs` seeded copies of one configuration -- one sweep of a run_*_many
/// driver. Job r of the sweep runs with derive_seed(seed, r).
struct SeededSweep {
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 0;
  int runs = 0;
};

/// The shape of every run_*_many driver, over a list of seeded sweeps in one
/// region: job (s, r) calls `run(s, derive_seed(sweeps[s].seed, r))`; the
/// available results are then handed to `absorb(s, result)` in (sweep, run)
/// order, so every aggregate is bitwise-identical for any thread count and
/// across resume/shard splits. Checkpoint, budget and outcome semantics as
/// run_checkpointed.
template <typename Run, typename Absorb>
void run_seeded(const SweepCheckpoint& ckpt, SweepOutcome* outcome,
                const std::vector<SeededSweep>& sweeps, Run&& run,
                Absorb&& absorb) {
  using Result =
      std::decay_t<std::invoke_result_t<Run&, std::size_t, std::uint64_t>>;
  std::vector<SweepKey> keys;
  for (const SeededSweep& sweep : sweeps) {
    ETHSM_EXPECTS(sweep.runs > 0, "need at least one run");
    keys.push_back({sweep.fingerprint, static_cast<std::size_t>(sweep.runs)});
  }
  const auto results = run_checkpointed<Result>(
      ckpt, outcome, keys, [&](std::size_t s, std::size_t r) {
        return run(s,
                   derive_seed(sweeps[s].seed, static_cast<std::uint64_t>(r)));
      });
  for (std::size_t s = 0; s < results.size(); ++s) {
    for (std::size_t r = 0; r < results[s].results.size(); ++r) {
      if (results[s].have[r]) absorb(s, results[s].results[r]);
    }
  }
}

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_PARALLEL_H
