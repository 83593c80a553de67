// Streaming statistics used by the simulation harness: Welford running
// moments, normal-approximation confidence intervals, and integer histograms
// (used for uncle-reference-distance distributions, Table II of the paper).

#ifndef ETHSM_SUPPORT_STATS_H
#define ETHSM_SUPPORT_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ethsm::support {

/// Numerically stable single-pass mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean.
  [[nodiscard]] double sem() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Half-width of a normal-approximation confidence interval around the mean.
  /// `z` defaults to 1.96 (95%). With few samples this understates the width;
  /// the experiment harness uses >= 10 runs as in the paper.
  [[nodiscard]] double ci_halfwidth(double z = 1.96) const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-domain integer histogram over [0, size); out-of-range samples are
/// counted in a separate overflow bucket so nothing is silently dropped.
class Histogram {
 public:
  explicit Histogram(std::size_t size);

  void add(std::size_t bucket, std::uint64_t weight = 1) noexcept;
  void merge(const Histogram& other);

  [[nodiscard]] std::size_t size() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t at(std::size_t bucket) const;
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Probability mass conditional on bucket in [lo, hi].
  [[nodiscard]] double conditional_fraction(std::size_t bucket, std::size_t lo,
                                            std::size_t hi) const;
  /// E[bucket | bucket in [lo, hi]]; 0 when the range is empty.
  [[nodiscard]] double conditional_mean(std::size_t lo, std::size_t hi) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Kahan-compensated accumulator for long sums of small terms (stationary
/// distribution mass, reward-rate integrals).
class KahanSum {
 public:
  void add(double x) noexcept {
    const double y = x - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }
  [[nodiscard]] double value() const noexcept { return sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_STATS_H
