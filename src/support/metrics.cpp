#include "support/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>

namespace ethsm::support::metrics {

namespace {

/// Shortest %g rendering that round-trips well enough for exposition; metric
/// names are ASCII identifiers so no escaping is needed anywhere below.
std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", v);
  return buffer;
}

void add_double_bits(std::atomic<std::uint64_t>& bits, double v) noexcept {
  std::uint64_t old = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      old, std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + v),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------- Counter ---

std::size_t Counter::stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id % kStripes;
}

// -------------------------------------------------------------- Histogram ---

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  add_double_bits(sum_bits_, v);
}

double Histogram::sum() const noexcept {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::uint64_t Histogram::cumulative(std::size_t i) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k <= i && k <= bounds_.size(); ++k) {
    total += buckets_[k].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> Histogram::latency_bounds_seconds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2,
          1e-1, 5e-1, 1.0,  5.0,  10.0, 30.0, 100.0};
}

// --------------------------------------------------------------- Registry ---

Registry::Entry& Registry::find_or_create(const std::string& name, Kind kind,
                                          const std::string& help) {
  for (const auto& entry : entries_) {
    if (entry->name == name) {
      if (entry->kind != kind) {
        throw std::logic_error("metrics: '" + name +
                               "' registered twice with different kinds");
      }
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->kind = kind;
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, Kind::counter, help);
  if (!entry.owned_counter) entry.owned_counter = std::make_unique<Counter>();
  return *entry.owned_counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, Kind::gauge, help);
  if (!entry.owned_gauge) entry.owned_gauge = std::make_unique<Gauge>();
  return *entry.owned_gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds,
                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, Kind::histogram, help);
  if (!entry.owned_histogram) {
    entry.owned_histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *entry.owned_histogram;
}

void Registry::register_counter(const std::string& name,
                                const Counter* counter,
                                const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, Kind::external_counter, help);
  entry.external_counter = counter;
}

void Registry::register_counter_fn(const std::string& name,
                                   std::function<std::uint64_t()> fn,
                                   const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, Kind::counter_fn, help);
  entry.counter_fn = std::move(fn);
}

void Registry::register_gauge_fn(const std::string& name,
                                 std::function<std::int64_t()> fn,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, Kind::gauge_fn, help);
  entry.gauge_fn = std::move(fn);
}

std::string Registry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(entries_.size() * 96);
  for (const auto& entry : entries_) {
    if (!entry->help.empty()) {
      out += "# HELP " + entry->name + " " + entry->help + "\n";
    }
    switch (entry->kind) {
      case Kind::counter:
      case Kind::external_counter:
      case Kind::counter_fn: {
        std::uint64_t v = 0;
        if (entry->kind == Kind::counter) {
          v = entry->owned_counter->value();
        } else if (entry->kind == Kind::external_counter) {
          v = entry->external_counter ? entry->external_counter->value() : 0;
        } else {
          v = entry->counter_fn ? entry->counter_fn() : 0;
        }
        out += "# TYPE " + entry->name + " counter\n";
        out += entry->name + " " + std::to_string(v) + "\n";
        break;
      }
      case Kind::gauge:
      case Kind::gauge_fn: {
        const std::int64_t v = entry->kind == Kind::gauge
                                   ? entry->owned_gauge->value()
                                   : (entry->gauge_fn ? entry->gauge_fn() : 0);
        out += "# TYPE " + entry->name + " gauge\n";
        out += entry->name + " " + std::to_string(v) + "\n";
        break;
      }
      case Kind::histogram: {
        const Histogram& h = *entry->owned_histogram;
        out += "# TYPE " + entry->name + " histogram\n";
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          out += entry->name + "_bucket{le=\"" +
                 format_double(h.bounds()[i]) + "\"} " +
                 std::to_string(h.cumulative(i)) + "\n";
        }
        out += entry->name + "_bucket{le=\"+Inf\"} " +
               std::to_string(h.count()) + "\n";
        out += entry->name + "_sum " + format_double(h.sum()) + "\n";
        out += entry->name + "_count " + std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string Registry::render_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string counters, gauges, histograms;
  for (const auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::counter:
      case Kind::external_counter:
      case Kind::counter_fn: {
        std::uint64_t v = 0;
        if (entry->kind == Kind::counter) {
          v = entry->owned_counter->value();
        } else if (entry->kind == Kind::external_counter) {
          v = entry->external_counter ? entry->external_counter->value() : 0;
        } else {
          v = entry->counter_fn ? entry->counter_fn() : 0;
        }
        if (!counters.empty()) counters += ", ";
        counters += "\"" + entry->name + "\": " + std::to_string(v);
        break;
      }
      case Kind::gauge:
      case Kind::gauge_fn: {
        const std::int64_t v = entry->kind == Kind::gauge
                                   ? entry->owned_gauge->value()
                                   : (entry->gauge_fn ? entry->gauge_fn() : 0);
        if (!gauges.empty()) gauges += ", ";
        gauges += "\"" + entry->name + "\": " + std::to_string(v);
        break;
      }
      case Kind::histogram: {
        const Histogram& h = *entry->owned_histogram;
        if (!histograms.empty()) histograms += ", ";
        histograms += "\"" + entry->name + "\": {\"buckets\": [";
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          if (i > 0) histograms += ", ";
          histograms += "{\"le\": " + format_double(h.bounds()[i]) +
                        ", \"count\": " + std::to_string(h.cumulative(i)) +
                        "}";
        }
        histograms += "], \"sum\": " + format_double(h.sum()) +
                      ", \"count\": " + std::to_string(h.count()) + "}";
        break;
      }
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace ethsm::support::metrics
