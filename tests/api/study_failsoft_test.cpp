// Fail-soft study-runner tests (`ctest -L faults`): a cell whose run(spec)
// throws mid-study must not discard its completed siblings -- the failure is
// recorded (status=failed + error in manifest.json), the remaining cells
// still run, --retry re-attempts with backoff, and a failed cell's stale
// results directory is removed rather than left to contradict the manifest.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/study.h"
#include "support/temp_dir.h"

namespace ethsm::api {
namespace {

namespace fs = std::filesystem;

/// Three tiny network cells; the middle one passes spec validation (the
/// grammar cannot see the cross-field conflict) but run() deterministically
/// throws: two_clusters needs at least 2 honest nodes.
constexpr const char* kFailingStudy =
    "study = failsoft\n"
    "kind = net\n"
    "alphas = 0.3\n"
    "net.nodes = 3\n"
    "sim_runs = 1\n"
    "sim_blocks = 200\n"
    "variant.ok_a.net.latency = fixed:10\n"
    "variant.bad.net.topology = two_clusters:100\n"
    "variant.bad.net.nodes = 1\n"
    "variant.ok_b.net.latency = fixed:20\n";

class StudyFailSoftTest : public ::testing::Test {
 protected:
  void SetUp() override { root_ = testutil::temp_dir("failsoft"); }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  fs::path root_;
};

TEST_F(StudyFailSoftTest, ThrowingCellDoesNotDiscardItsSiblings) {
  const auto entries = expand_study(parse_study(kFailingStudy), false);
  ASSERT_EQ(entries.size(), 3u);

  const StudyResult study = run_study("failsoft", "", entries, {});
  ASSERT_EQ(study.entries.size(), 3u);

  EXPECT_FALSE(study.entries[0].failed);
  EXPECT_TRUE(study.entries[0].result.complete());
  EXPECT_EQ(study.entries[0].attempts, 1);

  EXPECT_TRUE(study.entries[1].failed);
  EXPECT_EQ(study.entries[1].attempts, 1);  // no retries by default
  EXPECT_NE(study.entries[1].error.find("two_clusters"), std::string::npos)
      << study.entries[1].error;
  // The failed cell still carries provenance for GC keep-sets.
  EXPECT_FALSE(study.entries[1].result.sweep_fingerprints.empty());

  // The sibling AFTER the failure completed -- the study kept going.
  EXPECT_FALSE(study.entries[2].failed);
  EXPECT_TRUE(study.entries[2].result.complete());

  EXPECT_TRUE(study.any_failed());
  EXPECT_FALSE(study.complete());

  // The results tree: artefacts for the healthy cells, a failed record (with
  // the error) in the manifest, and no directory for the failed cell.
  const fs::path out = root_ / "out";
  write_study_results(study, out.string());
  EXPECT_TRUE(fs::exists(out / study.entries[0].dir / "data.json"));
  EXPECT_TRUE(fs::exists(out / study.entries[2].dir / "data.json"));
  EXPECT_FALSE(fs::exists(out / study.entries[1].dir));

  const std::string manifest = slurp(out / "manifest.json");
  EXPECT_NE(manifest.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(manifest.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(manifest.find("two_clusters"), std::string::npos);
  EXPECT_NE(manifest.find("\"complete\": false"), std::string::npos);
}

TEST_F(StudyFailSoftTest, RetryPolicyReattemptsWithExponentialBackoff) {
  const auto entries = expand_study(parse_study(kFailingStudy), false);

  StudyFailurePolicy policy;
  policy.retries = 2;
  std::vector<double> backoffs;
  policy.sleeper = [&backoffs](double ms) { backoffs.push_back(ms); };

  const StudyResult study =
      run_study("failsoft", "", entries, {}, {}, policy);

  // A deterministic failure burns the whole attempt budget; the healthy
  // cells never retry and never sleep.
  EXPECT_EQ(study.entries[0].attempts, 1);
  EXPECT_EQ(study.entries[1].attempts, 3);
  EXPECT_TRUE(study.entries[1].failed);
  EXPECT_EQ(study.entries[2].attempts, 1);
  EXPECT_EQ(backoffs, (std::vector<double>{250.0, 500.0}));
}

TEST_F(StudyFailSoftTest, FailedCellRemovesItsStaleResultsDirectory) {
  // First a fully healthy run of the same three cell names...
  const char* healthy =
      "study = failsoft\n"
      "kind = net\n"
      "alphas = 0.3\n"
      "net.nodes = 3\n"
      "sim_runs = 1\n"
      "sim_blocks = 200\n"
      "variant.ok_a.net.latency = fixed:10\n"
      "variant.bad.net.latency = fixed:15\n"
      "variant.ok_b.net.latency = fixed:20\n";
  const fs::path out = root_ / "out";
  write_study_results(
      run_study("failsoft", "",
                expand_study(parse_study(healthy), false), {}),
      out.string());
  ASSERT_TRUE(fs::exists(out / "bad" / "data.json"));

  // ...then the edited study whose "bad" cell now throws, into the same
  // --out: the stale directory must not survive to contradict the manifest.
  write_study_results(
      run_study("failsoft", "",
                expand_study(parse_study(kFailingStudy), false), {}),
      out.string());
  EXPECT_FALSE(fs::exists(out / "bad"));
  EXPECT_TRUE(fs::exists(out / "ok_a" / "data.json"));
  EXPECT_TRUE(fs::exists(out / "ok_b" / "data.json"));
}

}  // namespace
}  // namespace ethsm::api
