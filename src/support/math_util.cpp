#include "support/math_util.h"

#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "support/check.h"

namespace ethsm::support {

FirstTrueReport first_true_report(const std::function<bool(double)>& pred,
                                  double lo, double hi, double tolerance) {
  ETHSM_EXPECTS(lo <= hi, "first_true_report: empty interval");
  if (pred(lo)) return {lo, CrossingLocation::at_lo};
  if (!pred(hi)) return {std::nullopt, CrossingLocation::none};
  const double original_hi = hi;
  while ((hi - lo) > tolerance) {
    const double mid = std::midpoint(lo, hi);
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  // The bracket never moved off the upper endpoint (or stopped within one
  // tolerance of it): the sign change sits on hi itself. That is a verdict
  // about the bracket, not a failure -- the caller decides what it means.
  const bool on_endpoint = hi >= original_hi - tolerance;
  return {hi,
          on_endpoint ? CrossingLocation::at_hi : CrossingLocation::interior};
}

double ipow(double base, int exponent) noexcept {
  ETHSM_ASSERT(exponent >= 0);
  double result = 1.0;
  double b = base;
  int e = exponent;
  while (e > 0) {
    if (e & 1) result *= b;
    b *= b;
    e >>= 1;
  }
  return result;
}

std::string print_shortest_double(double value) {
  char buffer[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

}  // namespace ethsm::support
