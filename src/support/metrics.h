// Process-wide metrics: named monotonic counters, gauges, and fixed-bucket
// histograms, collected in a registry that renders to Prometheus text
// exposition format (GET /metrics on `ethsm serve`) and to a JSON snapshot
// (`ethsm run --metrics-out FILE`).
//
// Design constraints, in order:
//   1. Metrics are write-only taps. Nothing in the engine may read a metric
//      to make a decision, so results are bitwise-identical with
//      instrumentation on, off, or compiled out (ETHSM_METRICS=OFF).
//   2. The hot path is one relaxed fetch_add on a thread-striped cell
//      (Counter::add). BM_MetricsCounterHotPath in bench_perf_micro pins
//      the cost.
//   3. Reads are exact: value() sums every stripe, and concurrent
//      increments are never lost (fetch_add, not racy read-modify-write).
//
// Two registries exist by analogy with the two scopes of accounting:
// `metrics::registry()` is the process-wide home of engine taps (solver,
// thread pool, checkpoint store, net sim, orchestrate), while components
// that need per-instance counts (serve::ExperimentService) own a private
// Registry instance. Both render the same way.
//
// Compile-out: -DETHSM_METRICS_OFF (set by the ETHSM_METRICS=OFF CMake
// option) flips `kEnabled` to false. Call sites on hot paths guard with
// `if constexpr (metrics::kEnabled)`, so the tap compiles to nothing; the
// registry itself always compiles, keeping `ethsm serve` and /v1/status
// functional in an OFF build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ethsm::support::metrics {

#if defined(ETHSM_METRICS_OFF)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Monotonic counter. Increments land on one of kStripes cache-line-padded
/// atomic cells selected by a thread-local stripe id, so concurrent writers
/// on different threads (usually) touch different lines; value() sums the
/// stripes for an exact total. Standalone and embeddable: components may
/// hold a Counter as a member and register it with a Registry by pointer.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    cells_[stripe_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr std::size_t kStripes = 16;
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };

  static std::size_t stripe_index() noexcept;

  Cell cells_[kStripes];
};

/// Last-write-wins signed gauge (queue depths, active regions, ...).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n) noexcept {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram for latencies and sizes. Bucket upper bounds are
/// chosen at construction and never change; observe() is a binary search
/// plus two relaxed atomic adds. Distinct from support::Histogram in
/// stats.h, which is an integer-domain result histogram with a checkpoint
/// codec -- this one is an observability tap and is never persisted.
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds, strictly increasing; observations
  /// above the last bound land in the implicit +Inf bucket.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept;
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Cumulative count of observations <= bounds()[i] (Prometheus `le`
  /// semantics); i == bounds().size() gives the +Inf bucket == count().
  std::uint64_t cumulative(std::size_t i) const noexcept;

  /// Default latency bounds in seconds: 1us .. ~100s, quasi-logarithmic.
  static std::vector<double> latency_bounds_seconds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds + Inf
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double stored via bit_cast
};

/// Name -> metric map with stable (registration-order) iteration. Owns the
/// metrics it creates; also accepts non-owning pointers and callbacks so
/// components with internal accounting (serve::ResultTable) can surface
/// their single source of truth without a copy.
///
/// Renders two ways: Prometheus text exposition (`render_prometheus`) and a
/// JSON object (`render_json`). Both are exact snapshots at call time.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Create-or-get an owned metric. References stay valid for the lifetime
  /// of the registry (storage is node-stable). Calling with a name already
  /// registered as a different kind throws std::logic_error.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "");

  /// Register externally owned metrics (must outlive the registry).
  void register_counter(const std::string& name, const Counter* counter,
                        const std::string& help = "");
  /// Callback providers: sampled at render time. `counter_fn` renders as a
  /// monotonic counter, `gauge_fn` as a gauge.
  void register_counter_fn(const std::string& name,
                           std::function<std::uint64_t()> fn,
                           const std::string& help = "");
  void register_gauge_fn(const std::string& name,
                         std::function<std::int64_t()> fn,
                         const std::string& help = "");

  std::string render_prometheus() const;
  std::string render_json() const;

 private:
  enum class Kind { counter, external_counter, counter_fn, gauge, gauge_fn,
                    histogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> owned_counter;
    std::unique_ptr<Gauge> owned_gauge;
    std::unique_ptr<Histogram> owned_histogram;
    const Counter* external_counter = nullptr;
    std::function<std::uint64_t()> counter_fn;
    std::function<std::int64_t()> gauge_fn;
  };

  Entry& find_or_create(const std::string& name, Kind kind,
                        const std::string& help);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

/// The process-wide registry: home of the engine-layer taps.
Registry& registry();

}  // namespace ethsm::support::metrics
