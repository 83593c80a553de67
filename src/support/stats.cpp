#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace ethsm::support {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::sem() const noexcept {
  return n_ >= 1 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

double RunningStats::ci_halfwidth(double z) const noexcept { return z * sem(); }

Histogram::Histogram(std::size_t size) : counts_(size, 0) {
  ETHSM_EXPECTS(size > 0, "histogram needs at least one bucket");
}

void Histogram::add(std::size_t bucket, std::uint64_t weight) noexcept {
  if (bucket < counts_.size()) {
    counts_[bucket] += weight;
  } else {
    overflow_ += weight;
  }
  total_ += weight;
}

void Histogram::merge(const Histogram& other) {
  ETHSM_EXPECTS(other.counts_.size() == counts_.size(),
                "histogram sizes must match to merge");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  overflow_ += other.overflow_;
  total_ += other.total_;
}

std::uint64_t Histogram::at(std::size_t bucket) const {
  ETHSM_EXPECTS(bucket < counts_.size(), "histogram bucket out of range");
  return counts_[bucket];
}

double Histogram::conditional_fraction(std::size_t bucket, std::size_t lo,
                                       std::size_t hi) const {
  ETHSM_EXPECTS(lo <= hi && hi < counts_.size(), "bad conditional range");
  std::uint64_t mass = 0;
  for (std::size_t i = lo; i <= hi; ++i) mass += counts_[i];
  if (mass == 0 || bucket < lo || bucket > hi) return 0.0;
  return static_cast<double>(counts_[bucket]) / static_cast<double>(mass);
}

double Histogram::conditional_mean(std::size_t lo, std::size_t hi) const {
  ETHSM_EXPECTS(lo <= hi && hi < counts_.size(), "bad conditional range");
  std::uint64_t mass = 0;
  double weighted = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) {
    mass += counts_[i];
    weighted += static_cast<double>(i) * static_cast<double>(counts_[i]);
  }
  if (mass == 0) return 0.0;
  return weighted / static_cast<double>(mass);
}

}  // namespace ethsm::support
