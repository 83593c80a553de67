// Closed-form expressions from the paper (Sec. IV-C and Appendix A):
//   * pi_{0,0} = (1 - 2a) / (2a^3 - 4a^2 + 1)
//   * pi_{i,0} = a^i * pi_{0,0}
//   * pi_{1,1} = (a - a^2) * pi_{0,0}
//   * the nested-summation helper f(x, y, z) of Eq. (2) / Appendix A
//   * the paper's general pi_{i,j} formula (Eq. (2))
// plus the global-balance residual of a solved vector, the oracle for the
// solver's structural invariants.
//
// The numeric solver (stationary.h) is the library's source of truth; these
// forms serve as oracles in the test suite. The general Eq. (2) expression,
// with the summation nesting read as "each inner index's lower bound is one
// below its enclosing index's" (lb(s_k) = y + 2 - (z - k)), matches the
// numeric stationary distribution to machine precision for every state and
// every (alpha, gamma) tested -- i.e. the paper's formula is exact.

#ifndef ETHSM_MARKOV_CLOSED_FORM_H
#define ETHSM_MARKOV_CLOSED_FORM_H

#include "markov/stationary.h"

namespace ethsm::markov {

/// pi_{0,0} (paper Sec. IV-C). Requires 0 <= alpha < 1/2.
[[nodiscard]] double pi00_closed_form(double alpha);

/// pi_{i,0} = alpha^i * pi_{0,0}, i >= 1.
[[nodiscard]] double pii0_closed_form(double alpha, int i);

/// pi_{1,1} = (alpha - alpha^2) * pi_{0,0}.
[[nodiscard]] double pi11_closed_form(double alpha);

/// The multiple-summation function f(x, y, z) of Eq. (2):
///   f(x,y,z) = sum_{s_z = y+2}^{x} sum_{s_{z-1} = y+1}^{s_z} ...
///              sum_{s_1 = y-z+3}^{s_2} 1         for z >= 1, x >= y + 2,
///   f(x,y,z) = 0 otherwise.
/// Appendix A closed forms: f(x,y,1) = x - y - 1,
/// f(x,y,2) = (x - y - 1)(x - y + 2) / 2.
[[nodiscard]] double f_multisum(int x, int y, int z);

/// The paper's general stationary expression for pi_{i,j}, i - j >= 2, j >= 1
/// (Eq. (2)), evaluated literally as printed.
[[nodiscard]] double piij_closed_form(double alpha, double gamma, int i, int j);

/// Max |inflow - outflow| over the states of `model` under `pi`: how well
/// global balance holds (self-loops cancel).
[[nodiscard]] double balance_residual(const StationaryDistribution& pi,
                                      const TransitionModel& model);

}  // namespace ethsm::markov

#endif  // ETHSM_MARKOV_CLOSED_FORM_H
