#include "analysis/bitcoin_es.h"

#include "support/check.h"

namespace ethsm::analysis {

double eyal_sirer_threshold(double gamma) {
  ETHSM_EXPECTS(gamma >= 0.0 && gamma <= 1.0, "gamma must lie in [0, 1]");
  return (1 - gamma) / (3 - 2 * gamma);
}

}  // namespace ethsm::analysis
