#include "support/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "support/check.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ethsm::support {

namespace {

/// The pool whose job this thread is executing (null outside any job). A
/// region entered on that same pool runs inline; any other pool publishes it.
thread_local const ThreadPool* t_current_pool = nullptr;

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;  // guarded by g_global_mutex

/// Write-only observability tap. Tasks drained through regions are counted
/// and timed; for_each_index's inline paths (n == 1, single-thread pools,
/// regions nested in a job of the same pool) bypass the pool machinery and
/// are deliberately not counted -- the metrics describe pool work, not total
/// work. Several regions can be active at once (concurrent callers); queue
/// depth is the remaining-ticket estimate of the region touched last.
struct PoolMetrics {
  metrics::Counter& tasks;
  metrics::Counter& regions;
  metrics::Histogram& task_seconds;
  metrics::Gauge& active_regions;
  metrics::Gauge& queue_depth;

  static PoolMetrics& instance() {
    auto& reg = metrics::registry();
    static PoolMetrics m{
        reg.counter("ethsm_pool_tasks_total",
                    "Tasks executed through thread-pool regions"),
        reg.counter("ethsm_pool_regions_total",
                    "Parallel regions run on the thread pool"),
        reg.histogram("ethsm_pool_task_seconds",
                      metrics::Histogram::latency_bounds_seconds(),
                      "Latency of individual pool tasks"),
        reg.gauge("ethsm_pool_active_regions",
                  "Parallel regions currently executing"),
        reg.gauge("ethsm_pool_queue_depth",
                  "Remaining tickets in the region touched last"),
    };
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : concurrency_(threads == 0 ? 1 : threads) {
  if constexpr (metrics::kEnabled) {
    // Register the pool metric family up front so GET /metrics and
    // --metrics-out list it (at zero) even on machines where every region
    // takes the single-thread inline path.
    (void)PoolMetrics::instance();
  }
  workers_.reserve(concurrency_ - 1);
  for (unsigned i = 0; i + 1 < concurrency_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::drain(Region& region) {
  const ThreadPool* const outer = t_current_pool;
  t_current_pool = this;
  std::size_t completed = 0;
  for (;;) {
    const std::size_t i =
        region.next_index.fetch_add(1, std::memory_order_relaxed);
    if (i >= region.size) break;
    if constexpr (metrics::kEnabled) {
      PoolMetrics::instance().queue_depth.set(
          static_cast<std::int64_t>(region.size - i - 1));
    }
    std::chrono::steady_clock::time_point task_start;
    if constexpr (metrics::kEnabled) {
      task_start = std::chrono::steady_clock::now();
    }
    try {
      region.fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!region.first_error) region.first_error = std::current_exception();
    }
    if constexpr (metrics::kEnabled) {
      PoolMetrics& m = PoolMetrics::instance();
      m.tasks.add();
      m.task_seconds.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        task_start)
              .count());
    }
    ++completed;
  }
  t_current_pool = outer;
  return completed;
}

std::shared_ptr<ThreadPool::Region> ThreadPool::claimable_region() const {
  for (const std::shared_ptr<Region>& region : open_) {
    if (region->next_index.load(std::memory_order_relaxed) < region->size) {
      return region;
    }
  }
  return nullptr;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Region> region;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || (region = claimable_region()) != nullptr;
      });
      if (stop_) return;
    }

    // Draining the oldest claimable region to exhaustion is oldest-first:
    // every older region is already fully claimed, and regions published
    // meanwhile are newer. A stale snapshot (other threads claimed the last
    // tickets between the check and here) is harmless: the loop below exits
    // at once with zero completions.
    const std::size_t completed = drain(*region);
    if (completed > 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      region->remaining -= completed;
      if (region->remaining == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_region(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  trace::Span span("pool.region");
  if constexpr (metrics::kEnabled) {
    PoolMetrics& m = PoolMetrics::instance();
    m.regions.add();
    m.active_regions.add(1);
  }
  auto region = std::make_shared<Region>();
  region->fn = fn;  // copied so stragglers can never observe a dead callable
  region->size = n;
  region->remaining = n;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open_.push_back(region);
  }
  work_cv_.notify_all();

  // The caller drains tickets alongside the workers.
  const std::size_t completed = drain(*region);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    region->remaining -= completed;
    done_cv_.wait(lock, [&] { return region->remaining == 0; });
    open_.erase(std::find(open_.begin(), open_.end(), region));
    error = region->first_error;
  }
  if constexpr (metrics::kEnabled) {
    PoolMetrics& m = PoolMetrics::instance();
    m.active_regions.sub(1);
    m.queue_depth.set(0);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || concurrency_ == 1 || t_current_pool == this) {
    // Inline, but with the region's error contract: every job runs, then the
    // first error is rethrown.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  run_region(n, fn);
}

unsigned ThreadPool::default_concurrency() {
  if (const char* env = std::getenv("ETHSM_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<unsigned>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(default_concurrency());
  }
  return *g_global_pool;
}

void ThreadPool::set_global_concurrency(unsigned threads) {
  ETHSM_EXPECTS(threads > 0, "thread pool needs at least the caller thread");
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace ethsm::support
