// Coordinator contract of `ethsm orchestrate` (src/orchestrate/). The
// end-to-end suites drive the real CLI binary (path via ETHSM_CLI_BIN, set
// by CMake; skipped when absent) and assert the PR's core guarantee: an
// orchestrated run's merged artefact is bitwise-identical to a
// single-process run -- including after a worker is SIGKILLed mid-unit and
// its shard is retried on a surviving slot. The in-process suites cover the
// retry/quarantine/fail-soft machinery with a worker binary that always
// fails, without burning CLI runtime. Suites are named Orchestrate* so
// `ctest -L orchestrate` selects them.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "orchestrate/orchestrate.h"
#include "orchestrate/process.h"
#include "orchestrate/transport.h"
#include "support/temp_dir.h"

namespace ethsm::orchestrate {
namespace {

using testutil::temp_dir;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Every regular file under `root` by relative path, with the manifests'
/// run-mode-dependent "timing" objects masked (the tools/compare_trees.py
/// regex): equal maps are bitwise-equal results trees.
std::map<std::string, std::string> tree_snapshot(const std::string& root) {
  static const std::regex timing_re(R"(,\s*"timing": \{[^}]*\})");
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::string contents = read_file(entry.path().string());
    if (entry.path().filename() == "manifest.json") {
      contents = std::regex_replace(contents, timing_re, "");
    }
    files[std::filesystem::relative(entry.path(), root).string()] = contents;
  }
  return files;
}

/// CLI binary under test, or empty (=> GTEST_SKIP) outside a CMake run.
std::string cli_binary() {
  const char* bin = std::getenv("ETHSM_CLI_BIN");
  return bin == nullptr ? std::string() : std::string(bin);
}

// ----------------------------------------------------------- in-process ---

TEST(Orchestrate, RejectsAnUnusableConfig) {
  OrchestrateConfig config;
  EXPECT_THROW((void)run_orchestrate(config), std::invalid_argument);

  LocalTransportConfig transport_config;
  transport_config.workers = 1;
  transport_config.work_root = temp_dir("cfg") + "/units";
  transport_config.binary = "/bin/true";
  LocalTransport transport(transport_config);
  config.transport = &transport;
  config.units = 0;
  EXPECT_THROW((void)run_orchestrate(config), std::invalid_argument);
}

TEST(Orchestrate, FailingWorkerExhaustsAttemptsAndQuarantinesASlot) {
  const std::string work = temp_dir("failsoft");
  LocalTransportConfig transport_config;
  transport_config.workers = 2;
  transport_config.work_root = work + "/units";
  transport_config.binary = "/bin/false";  // every attempt fails fast
  LocalTransport transport(transport_config);

  OrchestrateConfig config;
  config.transport = &transport;
  config.base_args = {"run", "fig10"};  // never executed successfully
  config.units = 4;
  config.coordinator_dir = work + "/ckpt";
  config.work_dir = work;
  config.retry.attempts = 2;
  config.retry.initial_backoff_ms = 1.0;  // keep the schedule, not the wait
  config.quarantine_after = 2;
  config.poll_interval_ms = 1.0;

  const OrchestrateOutcome outcome = run_orchestrate(config);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.records_imported, 0u);
  ASSERT_EQ(outcome.units.size(), 4u);
  for (const UnitOutcome& unit : outcome.units) {
    EXPECT_FALSE(unit.ok);
    EXPECT_EQ(unit.attempts, 2);
    EXPECT_EQ(unit.error, "exit code 1");
    EXPECT_EQ(unit.shard, std::to_string(unit.unit) + "/4");
  }
  // All 8 failures split over 2 slots: one slot must cross the consecutive-
  // failure threshold, and the last active slot is never quarantined.
  EXPECT_EQ(outcome.slots_quarantined, 1u);

  const std::string manifest_path = work + "/orchestrate-manifest.json";
  write_orchestrate_manifest(outcome, manifest_path);
  const std::string manifest = read_file(manifest_path);
  EXPECT_NE(manifest.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(manifest.find("\"error\": \"exit code 1\""), std::string::npos);
  EXPECT_NE(manifest.find("\"shard\": \"3/4\""), std::string::npos);
}

TEST(Orchestrate, ManifestRecordsSuccessVocabulary) {
  OrchestrateOutcome outcome;
  UnitOutcome unit;
  unit.unit = 0;
  unit.shard = "0/2";
  unit.worker = "local-1";
  unit.attempts = 1;
  unit.ok = true;
  unit.records_imported = 7;
  outcome.units.push_back(unit);
  outcome.records_imported = 7;

  const std::string path = temp_dir("manifest") + "/orchestrate-manifest.json";
  write_orchestrate_manifest(outcome, path);
  const std::string manifest = read_file(path);
  EXPECT_NE(manifest.find("\"schema\": \"ethsm-orchestrate-manifest-v1\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(manifest.find("\"worker\": \"local-1\""), std::string::npos);
  EXPECT_NE(manifest.find("\"records_imported\": 7"), std::string::npos);
  EXPECT_EQ(manifest.find("\"error\""), std::string::npos);
}

// ----------------------------------------------------------- end-to-end ---

TEST(OrchestrateEndToEnd, MergedArtefactIsBitwiseIdenticalToSingleProcess) {
  const std::string bin = cli_binary();
  if (bin.empty()) GTEST_SKIP() << "ETHSM_CLI_BIN not set";
  const std::string dir = temp_dir("e2e_ok");

  const ExitStatus direct = run_and_wait(
      {bin, "run", "fig10", "--quick", "--format", "csv", "--out",
       dir + "/direct.csv"},
      dir + "/direct.log");
  ASSERT_TRUE(direct.ok()) << direct.describe();

  const ExitStatus orchestrated = run_and_wait(
      {bin, "orchestrate", "fig10", "--quick", "--workers", "2", "--units",
       "4", "--checkpoint-dir", dir + "/ckpt", "--format", "csv", "--out",
       dir + "/merged.csv"},
      dir + "/orchestrate.log");
  ASSERT_TRUE(orchestrated.ok())
      << orchestrated.describe() << "\n"
      << read_file(dir + "/orchestrate.log");

  const std::string merged = read_file(dir + "/merged.csv");
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged, read_file(dir + "/direct.csv"));

  const std::string manifest =
      read_file(dir + "/ckpt/orchestrate-manifest.json");
  EXPECT_NE(manifest.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(manifest.find("\"units\": 4"), std::string::npos);
}

TEST(OrchestrateEndToEnd, KilledWorkerIsRetriedAndOutputUnchanged) {
  const std::string bin = cli_binary();
  if (bin.empty()) GTEST_SKIP() << "ETHSM_CLI_BIN not set";
  const std::string dir = temp_dir("e2e_kill");

  const ExitStatus direct = run_and_wait(
      {bin, "run", "fig10", "--quick", "--format", "csv", "--out",
       dir + "/direct.csv"},
      dir + "/direct.log");
  ASSERT_TRUE(direct.ok()) << direct.describe();

  // Unit 0's first attempt is SIGKILLed at launch (the coordinator's
  // dead-worker seam); the shard must be retried -- on any surviving slot --
  // and the merged artefact must still match the single-process run.
  const ExitStatus orchestrated = run_and_wait(
      {"env", "ETHSM_ORCHESTRATE_KILL=0:1", bin, "orchestrate", "fig10",
       "--quick", "--workers", "2", "--units", "4", "--checkpoint-dir",
       dir + "/ckpt", "--format", "csv", "--out", dir + "/merged.csv"},
      dir + "/orchestrate.log");
  ASSERT_TRUE(orchestrated.ok())
      << orchestrated.describe() << "\n"
      << read_file(dir + "/orchestrate.log");

  const std::string log = read_file(dir + "/orchestrate.log");
  EXPECT_NE(log.find("killed by signal 9"), std::string::npos) << log;

  const std::string merged = read_file(dir + "/merged.csv");
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged, read_file(dir + "/direct.csv"));

  // The manifest records the extra attempt in the study runner's fail-soft
  // vocabulary: unit 0 ends status=ok with attempts > 1.
  const std::string manifest =
      read_file(dir + "/ckpt/orchestrate-manifest.json");
  EXPECT_NE(manifest.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(manifest.find("{\"unit\": 0, \"shard\": \"0/4\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"attempts\": 2"), std::string::npos) << manifest;
}

TEST(OrchestrateEndToEnd, OrchestratedStudyTreeEqualsSingleProcessTree) {
  const std::string bin = cli_binary();
  if (bin.empty()) GTEST_SKIP() << "ETHSM_CLI_BIN not set";
  const std::string dir = temp_dir("e2e_study");

  const ExitStatus direct =
      run_and_wait({bin, "run", "--all", "--quick", "--out", dir + "/direct"},
                   dir + "/direct.log");
  ASSERT_TRUE(direct.ok()) << direct.describe();

  // Every unit is a job stripe of the whole study; the no-sweep cells are
  // left to the coordinator's merge pass, which then only loads jobs.
  const ExitStatus orchestrated = run_and_wait(
      {bin, "orchestrate", "--all", "--quick", "--workers", "2", "--units",
       "6", "--checkpoint-dir", dir + "/ckpt", "--out", dir + "/merged"},
      dir + "/orchestrate.log");
  const std::string log = read_file(dir + "/orchestrate.log");
  ASSERT_TRUE(orchestrated.ok()) << orchestrated.describe() << "\n" << log;
  EXPECT_TRUE(std::regex_search(
      log, std::regex(R"(checkpoint: (\d+) loaded \+ 0 computed of \1 jobs)")))
      << log;

  const auto merged = tree_snapshot(dir + "/merged");
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged, tree_snapshot(dir + "/direct"));

  const std::string manifest =
      read_file(dir + "/ckpt/orchestrate-manifest.json");
  EXPECT_NE(manifest.find("\"status\": \"ok\""), std::string::npos);
  for (int k = 0; k < 6; ++k) {
    EXPECT_NE(manifest.find("\"shard\": \"" + std::to_string(k) + "/6\""),
              std::string::npos)
        << manifest;
  }
}

TEST(OrchestrateEndToEnd, ShardWithoutCheckpointDirIsAHardUsageError) {
  const std::string bin = cli_binary();
  if (bin.empty()) GTEST_SKIP() << "ETHSM_CLI_BIN not set";
  const std::string dir = temp_dir("e2e_guard");

  // A sharded run without a checkpoint directory would silently discard the
  // shard's work: it must refuse with a pointer to the fix.
  const ExitStatus sharded = run_and_wait(
      {bin, "run", "fig10", "--quick", "--shard", "0/2"}, dir + "/shard.log");
  EXPECT_TRUE(sharded.exited);
  EXPECT_EQ(sharded.code, 2);
  EXPECT_NE(read_file(dir + "/shard.log").find("requires --checkpoint-dir"),
            std::string::npos);

  // --shard is the one way to split a run; whole-cell striping is gone.
  const ExitStatus cell_sharded =
      run_and_wait({bin, "run", "--all", "--quick", "--cell-shard", "0/2"},
                   dir + "/cellshard.log");
  EXPECT_TRUE(cell_sharded.exited);
  EXPECT_EQ(cell_sharded.code, 2);
  EXPECT_NE(read_file(dir + "/cellshard.log")
                .find("unknown argument --cell-shard"),
            std::string::npos);
}

}  // namespace
}  // namespace ethsm::orchestrate
