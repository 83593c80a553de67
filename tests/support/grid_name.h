// Test-name suffix for a point of a parameterised (alpha, gamma) grid.

#ifndef ETHSM_TESTS_SUPPORT_GRID_NAME_H
#define ETHSM_TESTS_SUPPORT_GRID_NAME_H

#include <string>

namespace ethsm::testutil {

/// "a<alpha * 100>_g<gamma * 100>", each truncated to an integer. Built by
/// appending: gcc 12 reports a false -Wstringop-overflow on
/// `"a" + std::to_string(...)` once <string> comes from a precompiled header.
inline std::string grid_name(double alpha, double gamma) {
  std::string name = "a";
  name += std::to_string(static_cast<int>(alpha * 100));
  name += "_g";
  name += std::to_string(static_cast<int>(gamma * 100));
  return name;
}

}  // namespace ethsm::testutil

#endif  // ETHSM_TESTS_SUPPORT_GRID_NAME_H
