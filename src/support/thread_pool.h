// Fixed-size thread pool for the sweep drivers (work-stealing-free).
//
// Design constraints, in order:
//  1. Determinism: callers get results keyed by job *index*; the pool never
//     reorders or merges anything itself. Combined with per-index seed
//     derivation (support/rng.h) every aggregate in this library is
//     bitwise-identical regardless of the thread count.
//  2. One set of compute workers: one process-wide pool
//     (ThreadPool::global()), sized once from ETHSM_THREADS or
//     std::thread::hardware_concurrency(), serves every caller. Regions
//     published from several threads at once (the daemon's connection
//     threads) are all open together; each caller drains its own region and
//     the workers help the oldest one that still has unclaimed jobs. With
//     k callers at once, at most concurrency() - 1 + k threads compute.
//  3. No deadlock on nesting: a region entered from inside a job of the
//     SAME pool runs inline on that thread (the outer region already owns
//     the pool's hardware). A region entered from a job of ANOTHER pool
//     (e.g. the server's connection pool) is published to this one like a
//     top-level region.
//
// Scheduling is one atomic ticket counter over [0, n) per region: dynamic
// load balancing without work stealing or per-task queues. Which thread runs
// a job is nondeterministic; what the job computes is not.

#ifndef ETHSM_SUPPORT_THREAD_POOL_H
#define ETHSM_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ethsm::support {

class ThreadPool {
 public:
  /// Creates a pool with the given total concurrency (caller thread included,
  /// so `threads == 1` means "no worker threads, run everything inline").
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency of this pool (>= 1, caller thread included).
  [[nodiscard]] unsigned concurrency() const noexcept { return concurrency_; }

  /// Runs fn(i) exactly once for every i in [0, n), distributing indices over
  /// the pool plus the calling thread; blocks until all n jobs finished.
  /// The first exception thrown by any job is rethrown on the caller after
  /// the region drains (every other job still runs, at any concurrency).
  /// Calls from inside a job of this pool, and pools with concurrency 1,
  /// execute serially inline. Calls from any other thread (a job of another
  /// pool included) publish a region; concurrent regions are all open at
  /// once, and the workers help the oldest one with unclaimed jobs left.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Concurrency the global pool is created with: the ETHSM_THREADS
  /// environment variable when set to a positive integer, otherwise
  /// std::thread::hardware_concurrency() (>= 1).
  [[nodiscard]] static unsigned default_concurrency();

  /// The process-wide pool used by parallel_for / parallel_map.
  [[nodiscard]] static ThreadPool& global();

  /// Recreates the global pool with a new concurrency. Intended for tests and
  /// benchmarks (determinism across thread counts); must not be called while
  /// a parallel region is running.
  static void set_global_concurrency(unsigned threads);

 private:
  /// One parallel region's state, heap-owned and shared between the caller
  /// and every worker that picked it. A worker descheduled with a stale
  /// Region snapshot finds its ticket counter exhausted and exits without
  /// touching any other region's accounting -- the shared_ptr keeps the job
  /// callable alive until the last such straggler lets go.
  struct Region {
    std::function<void(std::size_t)> fn;
    std::size_t size = 0;
    std::atomic<std::size_t> next_index{0};
    std::size_t remaining = 0;  ///< jobs not yet finished (under pool mutex_)
    std::exception_ptr first_error;  ///< under pool mutex_
  };

  void worker_loop();
  void run_region(std::size_t n, const std::function<void(std::size_t)>& fn);
  /// Claims and runs tickets of `region` on the current thread, which counts
  /// as inside this pool meanwhile; returns the number of jobs it completed.
  std::size_t drain(Region& region);
  /// The oldest open region with unclaimed tickets, or null (under mutex_).
  [[nodiscard]] std::shared_ptr<Region> claimable_region() const;

  unsigned concurrency_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< signals a new region or shutdown
  std::condition_variable done_cv_;   ///< signals region completion
  /// Regions published and not yet finished, oldest first (under mutex_).
  std::vector<std::shared_ptr<Region>> open_;
  bool stop_ = false;
};

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_THREAD_POOL_H
