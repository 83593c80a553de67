// parallel_for / parallel_map on the process-wide thread pool.
//
// Determinism contract (relied on by run_seeded, revenue_curve & friends):
// jobs are pure functions of their index, results land in an index-ordered
// vector, and any order-sensitive reduction is the caller's to perform
// serially afterwards. Under that discipline every aggregate is
// bitwise-identical whether the pool has 1 thread or 64.

#ifndef ETHSM_SUPPORT_PARALLEL_H
#define ETHSM_SUPPORT_PARALLEL_H

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/checkpoint.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace ethsm::support {

/// Runs fn(i) for every i in [0, n) on the global pool; blocks until done.
template <typename F>
void parallel_for(std::size_t n, F&& fn) {
  ThreadPool::global().for_each_index(n, std::forward<F>(fn));
}

/// Maps i -> fn(i) into a vector with results at their job index. The result
/// type must be default-constructible (job slots are pre-allocated so no
/// synchronisation is needed on the output).
template <typename F>
[[nodiscard]] auto parallel_map(std::size_t n, F&& fn) {
  using Result = std::decay_t<std::invoke_result_t<F&, std::size_t>>;
  static_assert(std::is_default_constructible_v<Result>,
                "parallel_map pre-allocates result slots");
  std::vector<Result> results(n);
  ThreadPool::global().for_each_index(
      n, [&](std::size_t i) { results[i] = fn(i); });
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

/// parallel_map with persistence: jobs already present in the checkpoint
/// store are decoded instead of recomputed; the rest (restricted to this
/// process's shard and job budget) run on the pool, each result appended to
/// the store as it completes, so an interrupted sweep resumes where it
/// stopped. Because jobs are pure functions of their index and payloads are
/// raw bit patterns, a resumed or sharded sweep is bitwise-identical to a
/// fresh one. `fingerprint` must cover every parameter the jobs depend on;
/// records from other fingerprints in the same directory are ignored.
///
/// The sweep's progress is merged into `*outcome`. A sweep left incomplete
/// (some jobs belong to other shards or exceed the job budget) is refused
/// unless the caller passed `outcome` to inspect: a partial result must
/// never pass for a whole one.
///
/// With checkpointing disabled (`!ckpt.enabled()`) this is exactly
/// parallel_map: sharding and budgets only apply when there is a store to
/// merge partial results through.
template <typename Result, typename F>
[[nodiscard]] CheckpointedSweep<Result> run_checkpointed(
    const SweepCheckpoint& ckpt, SweepOutcome* outcome,
    std::uint64_t fingerprint, std::size_t n, F&& fn) {
  static_assert(std::is_default_constructible_v<Result>,
                "run_checkpointed pre-allocates result slots");
  CheckpointedSweep<Result> sweep;
  SweepOutcome progress;
  progress.jobs_total = n;

  if (!ckpt.enabled()) {
    sweep.results = parallel_map(n, std::forward<F>(fn));
    sweep.have.assign(n, 1);
    progress.computed = n;
  } else {
    sweep.results.resize(n);
    sweep.have.assign(n, 0);
    CheckpointStore store(ckpt.directory, fingerprint, ckpt.shard);

    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < n; ++i) {
      if (store.contains(i)) {
        ByteReader reader(store.payload(i));
        sweep.results[i] = CheckpointCodec<Result>::decode(reader);
        sweep.have[i] = 1;
        ++progress.loaded;
      } else if (ckpt.shard.owns(i) && todo.size() < ckpt.max_new_jobs) {
        todo.push_back(i);
      }
    }

    parallel_for(todo.size(), [&](std::size_t k) {
      const std::size_t i = todo[k];
      Result result = fn(i);
      ByteWriter writer;
      CheckpointCodec<Result>::encode(writer, result);
      store.append(i, writer.bytes());  // thread-safe, flushed per record
      sweep.results[i] = std::move(result);
      sweep.have[i] = 1;
    });
    progress.computed = todo.size();
    progress.skipped = n - progress.loaded - progress.computed;
  }

  ETHSM_EXPECTS(outcome != nullptr || progress.complete(),
                "incomplete sharded/budgeted sweep: pass a SweepOutcome to "
                "consume partial results");
  if (outcome != nullptr) outcome->merge(progress);
  return sweep;
}

/// `runs` seeded copies of one configuration -- the shape of every
/// run_*_many driver. Job r calls `run(derive_seed(seed, r))`; the available
/// results are then handed to `absorb` in run order, so the aggregate is
/// bitwise-identical for any thread count and across resume/shard splits.
/// Checkpoint and outcome semantics as run_checkpointed.
template <typename Run, typename Absorb>
void run_seeded(const SweepCheckpoint& ckpt, SweepOutcome* outcome,
                std::uint64_t fingerprint, std::uint64_t seed, int runs,
                Run&& run, Absorb&& absorb) {
  using Result = std::decay_t<std::invoke_result_t<Run&, std::uint64_t>>;
  ETHSM_EXPECTS(runs > 0, "need at least one run");
  const auto sweep = run_checkpointed<Result>(
      ckpt, outcome, fingerprint, static_cast<std::size_t>(runs),
      [&](std::size_t r) {
        return run(derive_seed(seed, static_cast<std::uint64_t>(r)));
      });
  for (std::size_t r = 0; r < sweep.results.size(); ++r) {
    if (sweep.have[r]) absorb(sweep.results[r]);
  }
}

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_PARALLEL_H
