// The committed example inputs, driven through the real `ethsm` binary (path
// via ETHSM_CLI_BIN, set by CMake; skipped when absent): every study file
// under examples/studies/ expands, every spec file under examples/specs/
// prints, and `ethsm list --format json` prints the preset registry. Each
// output must equal what the library renders for the same input in-process.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/presets.h"
#include "api/spec.h"
#include "api/study.h"
#include "orchestrate/process.h"
#include "support/temp_dir.h"

namespace ethsm::api {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The example files with `extension` under examples/<dir>, sorted.
std::vector<fs::path> example_files(const char* dir, const char* extension) {
  std::vector<fs::path> files;
  for (const auto& entry :
       fs::directory_iterator(fs::path(ETHSM_SOURCE_DIR) / "examples" / dir)) {
    if (entry.path().extension() == extension) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Runs the CLI with `args`; returns its stdout + stderr, failing the test
/// unless it exits 0.
std::string cli_output(const char* bin, const std::vector<std::string>& args) {
  std::vector<std::string> argv{bin};
  argv.insert(argv.end(), args.begin(), args.end());
  const std::string log = testutil::temp_dir("cli") + "/out.txt";
  const orchestrate::ExitStatus status = orchestrate::run_and_wait(argv, log);
  EXPECT_TRUE(status.ok()) << status.describe() << "\n" << read_file(log);
  return read_file(log);
}

TEST(CliExampleInputs, EveryStudyExpands) {
  const char* bin = std::getenv("ETHSM_CLI_BIN");
  if (bin == nullptr) GTEST_SKIP() << "ETHSM_CLI_BIN not set";
  const auto studies = example_files("studies", ".study");
  ASSERT_FALSE(studies.empty());
  bool saw_attack_plane = false;
  for (const fs::path& path : studies) {
    SCOPED_TRACE(path.string());
    const StudySpec study = parse_study(read_file(path));
    const std::vector<StudyEntry> entries = expand_study(study, false);
    std::string want = "# study " + study.name + ": " +
                       std::to_string(entries.size()) + " spec(s)\n";
    for (const StudyEntry& entry : entries) {
      want += "\n# --- " + entry.name + " (dir: " + entry.dir + ") ---\n" +
              print_spec(entry.spec);
    }
    EXPECT_EQ(cli_output(bin, {"expand", path.string()}), want);
    if (study.name == "attack_plane") {
      saw_attack_plane = true;
      EXPECT_EQ(entries.size(), 22u);  // 2 scenarios x 11 gammas
    }
  }
  EXPECT_TRUE(saw_attack_plane);
}

TEST(CliExampleInputs, EverySpecPrintsCanonically) {
  const char* bin = std::getenv("ETHSM_CLI_BIN");
  if (bin == nullptr) GTEST_SKIP() << "ETHSM_CLI_BIN not set";
  const auto specs = example_files("specs", ".spec");
  ASSERT_FALSE(specs.empty());
  for (const fs::path& path : specs) {
    SCOPED_TRACE(path.string());
    EXPECT_EQ(cli_output(bin, {"print", "--spec", path.string()}),
              print_spec(parse_spec(read_file(path))));
  }
}

TEST(CliExampleInputs, ListJsonIsThePresetRegistry) {
  const char* bin = std::getenv("ETHSM_CLI_BIN");
  if (bin == nullptr) GTEST_SKIP() << "ETHSM_CLI_BIN not set";
  EXPECT_EQ(cli_output(bin, {"list", "--format", "json"}),
            render_presets_json());
}

}  // namespace
}  // namespace ethsm::api
