// The paper's closed-form revenue rates (Sec. IV-E1, Eqs. (3)-(5)): test
// oracles for analysis::compute_revenue, which must reproduce them; and the
// Eyal-Sirer revenue of the Bitcoin baseline, which the same analysis under
// Bitcoin rewards must reproduce.

#ifndef ETHSM_TESTS_ANALYSIS_REVENUE_CLOSED_FORM_H
#define ETHSM_TESTS_ANALYSIS_REVENUE_CLOSED_FORM_H

#include "support/check.h"

namespace ethsm::analysis {

/// Paper Eq. (3): closed-form r_b^s (static reward rate of the pool).
inline double pool_static_rate_closed_form(double alpha, double gamma) {
  const double a = alpha;
  const double b = 1.0 - a;
  const double d = 2 * a * a * a - 4 * a * a + 1;
  return (a * b * b * (4 * a + gamma * (1 - 2 * a)) - a * a * a) / d;
}

/// Paper Eq. (4): closed-form r_b^h (static reward rate of honest miners).
inline double honest_static_rate_closed_form(double alpha, double gamma) {
  const double a = alpha;
  const double b = 1.0 - a;
  const double d = 2 * a * a * a - 4 * a * a + 1;
  return (1 - 2 * a) * b * (a * b * (2 - gamma) + 1) / d;
}

/// Paper Eq. (5): closed-form r_u^s (uncle reward rate of the pool); the
/// pool's uncles are always referenced at distance 1 (Remark 5).
inline double pool_uncle_rate_closed_form(double alpha, double gamma,
                                          double ku1) {
  const double a = alpha;
  const double b = 1.0 - a;
  const double d = 2 * a * a * a - 4 * a * a + 1;
  return (1 - 2 * a) * b * b * a * (1 - gamma) / d * ku1;
}

/// The pool's relative revenue under Eyal-Sirer selfish mining in Bitcoin
/// ("Majority is not enough", CACM 2018):
///   R(a, g) = [a(1-a)^2 (4a + g(1-2a)) - a^3] / [1 - a(1 + (2-a)a)].
inline double eyal_sirer_revenue(double alpha, double gamma) {
  ETHSM_EXPECTS(alpha >= 0.0 && alpha < 0.5, "alpha must lie in [0, 0.5)");
  ETHSM_EXPECTS(gamma >= 0.0 && gamma <= 1.0, "gamma must lie in [0, 1]");
  const double a = alpha;
  const double g = gamma;
  const double numerator =
      a * (1 - a) * (1 - a) * (4 * a + g * (1 - 2 * a)) - a * a * a;
  const double denominator = 1 - a * (1 + (2 - a) * a);
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

}  // namespace ethsm::analysis

#endif  // ETHSM_TESTS_ANALYSIS_REVENUE_CLOSED_FORM_H
