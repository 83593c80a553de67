// Small numerical helpers shared by the analysis modules: the bisection
// behind the threshold search, integer powers and shortest round-trip double
// printing.

#ifndef ETHSM_SUPPORT_MATH_UTIL_H
#define ETHSM_SUPPORT_MATH_UTIL_H

#include <functional>
#include <optional>
#include <string>

namespace ethsm::support {

/// Where a monotone predicate's false->true crossing sits relative to the
/// search bracket [lo, hi].
enum class CrossingLocation {
  at_lo,     ///< pred(lo) already true: crossing at or below the bracket
  interior,  ///< strictly inside (lo, hi - tolerance)
  at_hi,     ///< within tolerance of hi: the bracket endpoint itself sits on
             ///< the sign change -- callers should report, not assume an
             ///< interior crossing (tightening the tolerance cannot separate
             ///< the crossing from the endpoint)
  none,      ///< pred false on the whole bracket
};

struct FirstTrueReport {
  std::optional<double> value;  ///< nullopt iff crossing == none
  CrossingLocation crossing = CrossingLocation::none;
};

/// Finds, by bisection to `tolerance`, the smallest x in [lo, hi] where the
/// monotone-crossing predicate becomes true (pred(lo) already true -> lo;
/// pred(hi) false -> nullopt), with a verdict on where the crossing sits in
/// the bracket. Used for profitability-threshold searches where the
/// objective Us(alpha) - alpha crosses zero once.
[[nodiscard]] FirstTrueReport first_true_report(
    const std::function<bool(double)>& pred, double lo, double hi,
    double tolerance = 1e-6);

/// Shortest decimal form that strtod parses back to exactly the same double.
/// The round-trip contract behind every text codec that must re-parse
/// bitwise: spec files (api/spec.cpp) and the net topology/latency grammars
/// (net/topology.cpp) share this one implementation so they cannot diverge.
[[nodiscard]] std::string print_shortest_double(double value);

/// Integer power with non-negative exponent (exact for small exponents, no
/// pow() rounding surprises in hot loops).
[[nodiscard]] double ipow(double base, int exponent) noexcept;

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_MATH_UTIL_H
