#include "markov/closed_form.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "support/check.h"
#include "support/math_util.h"

namespace ethsm::markov {

namespace {

double denom(double alpha) { return 2 * alpha * alpha * alpha - 4 * alpha * alpha + 1; }

/// Inner recursion for f: F(upper, k) = sum_{s = lb(k)}^{upper} F(s, k-1),
/// with F(., 0) = 1 and lower bound lb(k) = y + 2 - (z - k) (matching the
/// nesting in Eq. (2): the outermost index s_z starts at y+2, each inner
/// index's lower bound drops by one, the innermost s_1 starts at y - z + 3).
double f_inner(int upper, int k, int y, int z,
               std::map<std::pair<int, int>, double>& memo) {
  if (k == 0) return 1.0;
  const int lb = y + 2 - (z - k);
  if (upper < lb) return 0.0;
  const auto key = std::make_pair(upper, k);
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  double total = 0.0;
  for (int s = lb; s <= upper; ++s) total += f_inner(s, k - 1, y, z, memo);
  memo.emplace(key, total);
  return total;
}

}  // namespace

double pi00_closed_form(double alpha) {
  ETHSM_EXPECTS(alpha >= 0.0 && alpha < 0.5, "alpha must lie in [0, 0.5)");
  return (1.0 - 2.0 * alpha) / denom(alpha);
}

double pii0_closed_form(double alpha, int i) {
  ETHSM_EXPECTS(i >= 1, "pi_{i,0} defined for i >= 1");
  return support::ipow(alpha, i) * pi00_closed_form(alpha);
}

double pi11_closed_form(double alpha) {
  return (alpha - alpha * alpha) * pi00_closed_form(alpha);
}

double f_multisum(int x, int y, int z) {
  if (z < 1 || x < y + 2) return 0.0;
  std::map<std::pair<int, int>, double> memo;
  return f_inner(x, z, y, z, memo);
}

double piij_closed_form(double alpha, double gamma, int i, int j) {
  ETHSM_EXPECTS(j >= 1 && i - j >= 2, "pi_{i,j} defined for i-j >= 2, j >= 1");
  const double pi00 = pi00_closed_form(alpha);
  const double b = 1.0 - alpha;
  const double og = 1.0 - gamma;

  // Term 1: a^i (1-a)^j (1-g)^j f(i, j, j) pi00
  const double term1 = support::ipow(alpha, i) * support::ipow(b, j) *
                       support::ipow(og, j) * f_multisum(i, j, j) * pi00;

  // Term 2: a^{i-j} g (1-g)^{j-1} (1/(1-a)^{i-j-1} - 1) pi00
  const double term2 = support::ipow(alpha, i - j) * gamma *
                       support::ipow(og, j - 1) *
                       (1.0 / support::ipow(b, i - j - 1) - 1.0) * pi00;

  // Term 3: -g (1-g)^{j-1} sum_{k=1}^{j} a^{i-k} (1-a)^{j-k} f(i, j, j-k) pi00
  double sum = 0.0;
  for (int k = 1; k <= j; ++k) {
    sum += support::ipow(alpha, i - k) * support::ipow(b, j - k) *
           f_multisum(i, j, j - k);
  }
  const double term3 = -gamma * support::ipow(og, j - 1) * sum * pi00;

  return term1 + term2 + term3;
}

double balance_residual(const StationaryDistribution& pi,
                        const TransitionModel& model) {
  const std::size_t n = pi.values().size();
  std::vector<double> inflow(n, 0.0);
  std::vector<double> outflow(n, 0.0);
  const auto& row = model.row_offsets();
  const auto& col = model.columns();
  const auto& rate = model.rates();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::uint32_t k = row[s]; k < row[s + 1]; ++k) {
      const auto to = static_cast<std::size_t>(col[k]);
      if (to == s) continue;  // self-loops cancel in balance
      const double flux = pi.values()[s] * rate[k];
      outflow[s] += flux;
      inflow[to] += flux;
    }
  }
  double worst = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    worst = std::max(worst, std::fabs(inflow[s] - outflow[s]));
  }
  return worst;
}

}  // namespace ethsm::markov
