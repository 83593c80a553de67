// Numeric flags of the `ethsm` CLI take decimal digits only: no sign, no
// blanks, nothing trailing. Drives the real binary (path via ETHSM_CLI_BIN,
// set by CMake; skipped when absent), as tests/orchestrate/ does.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "orchestrate/process.h"
#include "support/temp_dir.h"

namespace ethsm {
namespace {

using orchestrate::ExitStatus;

/// Runs `ethsm run table1 --max-new-jobs <value>` from a scratch directory.
ExitStatus run_table1_with_budget(const std::string& bin,
                                  const std::string& value) {
  const std::string dir = testutil::temp_dir("cli");
  return orchestrate::run_and_wait(
      {bin, "run", "table1", "--max-new-jobs", value, "--out",
       dir + "/table1.txt"},
      dir + "/log.txt");
}

TEST(CliNumericFlags, SignedBlankOrTrailingValuesAreUsageErrors) {
  const char* bin = std::getenv("ETHSM_CLI_BIN");
  if (bin == nullptr) GTEST_SKIP() << "ETHSM_CLI_BIN not set";
  // " -1" is the case strtoull used to accept: it skips the blank and wraps
  // the sign around to 2^64 - 1.
  for (const char* value : {" -1", "-1", "+3", " 3", "3x", ""}) {
    SCOPED_TRACE(std::string("--max-new-jobs '") + value + "'");
    const ExitStatus status = run_table1_with_budget(bin, value);
    EXPECT_TRUE(status.exited) << status.describe();
    EXPECT_EQ(status.code, 2) << status.describe();
  }
}

TEST(CliNumericFlags, PlainDigitsAreAccepted) {
  const char* bin = std::getenv("ETHSM_CLI_BIN");
  if (bin == nullptr) GTEST_SKIP() << "ETHSM_CLI_BIN not set";
  const ExitStatus status = run_table1_with_budget(bin, "5");
  EXPECT_TRUE(status.ok()) << status.describe();
}

}  // namespace
}  // namespace ethsm
