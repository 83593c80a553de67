// Study-layer tests (`ctest -L study`): the matrix/variant expansion
// contract -- deterministic ordering, print_spec round-trips, duplicate
// variant / unknown matrix key / malformed grammar errors -- plus the run
// contract: one shared checkpoint directory across specs, a cross-spec
// --max-new-jobs budget, and an interrupted-and-resumed study whose results
// tree is bitwise-identical to an uninterrupted run.

#include "api/study.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "api/presets.h"
#include "api/render.h"
#include "support/checkpoint.h"
#include "support/temp_dir.h"

namespace ethsm::api {
namespace {

namespace fs = std::filesystem;

constexpr const char* kCrossoverStudy =
    "# Fig. 9-style schedules crossed with gamma\n"
    "study = crossover\n"
    "title = Schedules x gamma\n"
    "kind = revenue\n"
    "alphas = 0.2,0.4\n"
    "max_lead = 40\n"
    "variant.byzantium.rewards = byzantium\n"
    "variant.flat48.rewards = flat:0.5\n"
    "matrix.gamma = 0|0.5|1\n"
    "quick.alphas = 0.3\n";

TEST(StudyExpand, DeterministicMatrixOrderVariantsOuterLastAxisFastest) {
  const StudySpec study = parse_study(
      "study = order\n"
      "kind = threshold\n"
      "variant.a.tolerance = 1e-2\n"
      "variant.b.tolerance = 1e-3\n"
      "matrix.gamma = 0|1\n"
      "matrix.threshold_max_lead = 30|40\n");
  const auto entries = expand_study(study, /*quick=*/false);
  ASSERT_EQ(entries.size(), 8u);
  const char* expected[] = {
      "a, gamma=0, threshold_max_lead=30", "a, gamma=0, threshold_max_lead=40",
      "a, gamma=1, threshold_max_lead=30", "a, gamma=1, threshold_max_lead=40",
      "b, gamma=0, threshold_max_lead=30", "b, gamma=0, threshold_max_lead=40",
      "b, gamma=1, threshold_max_lead=30", "b, gamma=1, threshold_max_lead=40",
  };
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].name, expected[i]) << i;
  }
  // Expansion is a pure function of (study, quick, overrides).
  const auto again = expand_study(study, false);
  ASSERT_EQ(again.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(again[i].name, entries[i].name);
    EXPECT_EQ(again[i].spec, entries[i].spec);
  }
}

TEST(StudyExpand, EveryCellRoundTripsThroughPrintSpec) {
  for (const bool quick : {false, true}) {
    for (const StudyEntry& entry :
         expand_study(parse_study(kCrossoverStudy), quick)) {
      const std::string text = print_spec(entry.spec);
      EXPECT_EQ(parse_spec(text), entry.spec)
          << entry.name << "\n--- printed ---\n" << text;
    }
  }
}

TEST(StudyExpand, QuickOverridesApplyOnlyWhenQuick) {
  const StudySpec study = parse_study(kCrossoverStudy);
  const auto full = expand_study(study, false);
  const auto quick = expand_study(study, true);
  ASSERT_EQ(full.size(), 6u);  // 2 variants x 3 gammas
  ASSERT_EQ(quick.size(), 6u);
  EXPECT_EQ(full.front().spec.alphas, (std::vector<double>{0.2, 0.4}));
  EXPECT_EQ(quick.front().spec.alphas, (std::vector<double>{0.3}));
}

TEST(StudyExpand, SetOverridesApplyToEveryCellAndWinLast) {
  const auto entries =
      expand_study(parse_study(kCrossoverStudy), false, {"gamma=0.25"});
  for (const StudyEntry& entry : entries) {
    EXPECT_EQ(entry.spec.gamma, 0.25) << entry.name;  // beats the matrix
  }
  EXPECT_THROW(
      (void)expand_study(parse_study(kCrossoverStudy), false, {"bogus=1"}),
      SpecError);
}

TEST(StudyExpand, MatrixlessStudyIsOneCellPerVariant) {
  const auto entries = parse_study(
      "study = zoo\nkind = threshold\n"
      "variant.byz.rewards = byzantium\n"
      "variant.flat.rewards = flat:0.5\n");
  const auto expanded = expand_study(entries, false);
  ASSERT_EQ(expanded.size(), 2u);
  EXPECT_EQ(expanded[0].name, "byz");
  EXPECT_EQ(expanded[1].name, "flat");
  // No variants at all: a single implicit "base" cell.
  const auto single =
      expand_study(parse_study("study = solo\nkind = reward_table\n"), false);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].name, "base");
  EXPECT_EQ(single[0].spec.title, "solo");  // synthesized, no [cell] suffix
}

TEST(StudyExpand, DuplicateVariantNameIsError) {
  EXPECT_THROW((void)parse_study("study = s\n"
                                 "variant.a.gamma = 0.1\n"
                                 "variant.b.gamma = 0.2\n"
                                 "variant.a.alpha = 0.3\n"),
               SpecError);
}

TEST(StudyExpand, UnknownMatrixKeyIsError) {
  EXPECT_THROW(
      (void)expand_study(
          parse_study("study = s\nkind = threshold\nmatrix.bogus = 1|2\n"),
          false),
      SpecError);
  // ... and so is an unknown key inside a variant block.
  EXPECT_THROW(
      (void)expand_study(
          parse_study("study = s\nkind = threshold\nvariant.a.bogus = 1\n"),
          false),
      SpecError);
}

TEST(StudyExpand, GrammarErrors) {
  // A study file needs a name; plain spec files are not studies.
  EXPECT_THROW((void)parse_study("kind = threshold\n"), SpecError);
  EXPECT_THROW((void)parse_study("study = has space\n"), SpecError);
  EXPECT_THROW((void)parse_study("study = s\nstudy = t\n"), SpecError);
  EXPECT_THROW((void)parse_study("study = s\nmatrix.gamma = 0||1\n"),
               SpecError);
  EXPECT_THROW((void)parse_study("study = s\nmatrix.gamma =\n"), SpecError);
  EXPECT_THROW(
      (void)parse_study("study = s\nmatrix.gamma = 0|1\nmatrix.gamma = 2|3\n"),
      SpecError);
  EXPECT_THROW((void)parse_study("study = s\nvariant.a = 1\n"), SpecError);
  EXPECT_THROW((void)parse_study("study = s\nvariant.a/b.gamma = 1\n"),
               SpecError);
}

TEST(StudyExpand, PaperStudyCoversEveryPreset) {
  for (const bool quick : {false, true}) {
    const auto entries = paper_study_entries(quick);
    ASSERT_EQ(entries.size(), presets().size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].name, presets()[i].name);
      EXPECT_EQ(entries[i].dir, presets()[i].name);
      EXPECT_EQ(entries[i].spec, presets()[i].spec(quick));
    }
  }
}

// ---------------------------------------------------------------- running --

class StudyRunTest : public ::testing::Test {
 protected:
  void SetUp() override { root_ = testutil::temp_dir("study"); }

  /// A small two-variant threshold study: 2 specs x 2 gamma jobs, all
  /// behind the checkpoint-aware threshold_curve driver.
  static StudySpec small_study() {
    return parse_study(
        "study = small\n"
        "kind = threshold\n"
        "gammas = 0,1\n"
        "tolerance = 1e-2\n"
        "threshold_max_lead = 25\n"
        "variant.byz.rewards = byzantium\n"
        "variant.flat.rewards = flat:0.5\n");
  }

  /// Reads every regular file under `dir` into a path -> contents map with
  /// paths relative to `dir` (the bitwise tree comparison). The manifest's
  /// per-cell "timing" objects are run-mode-dependent by design (wall time,
  /// computed-vs-loaded job counts), so they are masked out with the same
  /// regex tools/compare_trees.py uses; everything else must be bitwise
  /// identical.
  static std::map<std::string, std::string> snapshot(const fs::path& dir) {
    static const std::regex timing_re(R"(,\s*"timing": \{[^}]*\})");
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream os;
      os << in.rdbuf();
      std::string contents = os.str();
      if (entry.path().filename() == "manifest.json") {
        contents = std::regex_replace(contents, timing_re, "");
      }
      files[fs::relative(entry.path(), dir).string()] = contents;
    }
    return files;
  }

  fs::path root_;
};

TEST_F(StudyRunTest, SharedCheckpointDirectoryAcrossSpecs) {
  const auto entries = expand_study(small_study(), false);
  ASSERT_EQ(entries.size(), 2u);

  RunOptions options;
  options.checkpoint.directory = (root_ / "ck").string();
  const StudyResult first = run_study("small", "", entries, options);
  EXPECT_TRUE(first.complete());
  EXPECT_EQ(first.outcome.jobs_total, 4u);
  EXPECT_EQ(first.outcome.computed, 4u);

  // Both specs' sweeps landed in the one directory...
  std::set<std::uint64_t> fingerprints;
  for (const auto& file :
       support::scan_checkpoint_directory(options.checkpoint.directory)) {
    ASSERT_TRUE(file.readable);
    fingerprints.insert(file.fingerprint);
  }
  EXPECT_EQ(fingerprints.size(), 2u);

  // ...and a re-run satisfies every job from disk.
  const StudyResult second = run_study("small", "", entries, options);
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.outcome.loaded, 4u);
  EXPECT_EQ(second.outcome.computed, 0u);
}

TEST_F(StudyRunTest, BudgetIsConsumedAcrossSpecsNotPerSpec) {
  const auto entries = expand_study(small_study(), false);
  RunOptions options;
  options.checkpoint.directory = (root_ / "ck").string();
  options.checkpoint.max_new_jobs = 3;  // < 4 total, > 2 per spec
  const StudyResult interrupted = run_study("small", "", entries, options);
  EXPECT_FALSE(interrupted.complete());
  // A per-spec budget would have computed 2 + 2; the study budget stops at 3.
  EXPECT_EQ(interrupted.outcome.computed, 3u);
  EXPECT_EQ(interrupted.outcome.skipped, 1u);
}

TEST_F(StudyRunTest, InterruptedResumeWritesBitwiseIdenticalTree) {
  const StudySpec study = small_study();
  const auto entries = expand_study(study, false);

  // Reference: one uninterrupted run (checkpointed, like the real CLI use).
  RunOptions uninterrupted;
  uninterrupted.checkpoint.directory = (root_ / "ck_fresh").string();
  write_study_results(run_study("small", "", entries, uninterrupted),
                      (root_ / "fresh").string());

  // Interrupted: one job per invocation until the study completes.
  RunOptions drip;
  drip.checkpoint.directory = (root_ / "ck_drip").string();
  drip.checkpoint.max_new_jobs = 1;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const StudyResult partial = run_study("small", "", entries, drip);
    write_study_results(partial, (root_ / "resumed").string());
    if (partial.complete()) break;
  }

  const auto fresh = snapshot(root_ / "fresh");
  const auto resumed = snapshot(root_ / "resumed");
  ASSERT_FALSE(fresh.empty());
  ASSERT_EQ(fresh.size(), resumed.size());
  for (const auto& [path, contents] : fresh) {
    ASSERT_TRUE(resumed.count(path)) << path;
    EXPECT_EQ(resumed.at(path), contents) << path << " differs";
  }

  // And both match a checkpoint-free run of the same entries.
  write_study_results(run_study("small", "", entries, {}),
                      (root_ / "plain").string());
  const auto plain = snapshot(root_ / "plain");
  ASSERT_EQ(plain.size(), fresh.size());
  for (const auto& [path, contents] : fresh) {
    EXPECT_EQ(plain.at(path), contents) << path << " differs";
  }
}

TEST_F(StudyRunTest, EditedStudyCleansUpStaleEntryDirectories) {
  const auto entries = expand_study(small_study(), false);
  const fs::path out = root_ / "out";
  write_study_results(run_study("small", "", entries, {}), out.string());
  ASSERT_TRUE(fs::exists(out / "flat" / "data.json"));

  // The user removes the "flat" variant and re-runs into the same --out: the
  // dead cell's directory must go away with it, or consumers globbing
  // **/data.json would pick up a cell the manifest no longer lists.
  const std::vector<StudyEntry> reduced(entries.begin(), entries.begin() + 1);
  write_study_results(run_study("small", "", reduced, {}), out.string());
  EXPECT_TRUE(fs::exists(out / "byz" / "data.json"));
  EXPECT_FALSE(fs::exists(out / "flat"));

  // A foreign directory the manifest never listed is left alone.
  fs::create_directories(out / "not-ours");
  write_study_results(run_study("small", "", reduced, {}), out.string());
  EXPECT_TRUE(fs::exists(out / "not-ours"));
}

TEST_F(StudyRunTest, ManifestListsEveryEntryWithFingerprints) {
  const auto entries = expand_study(small_study(), false);
  const StudyResult result = run_study("small", "Small", entries, {});
  write_study_results(result, (root_ / "out").string());

  std::ifstream in(root_ / "out" / "manifest.json");
  ASSERT_TRUE(in);
  std::ostringstream os;
  os << in.rdbuf();
  const std::string manifest = os.str();
  for (const StudyEntryResult& entry : result.entries) {
    EXPECT_NE(manifest.find("\"" + entry.name + "\""), std::string::npos);
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(entry.result.spec_fingerprint));
    EXPECT_NE(manifest.find(fp), std::string::npos) << entry.name;
    for (std::uint64_t sweep : entry.result.sweep_fingerprints) {
      std::snprintf(fp, sizeof fp, "%016llx",
                    static_cast<unsigned long long>(sweep));
      EXPECT_NE(manifest.find(fp), std::string::npos) << entry.name;
    }
    EXPECT_TRUE(fs::exists(root_ / "out" / entry.dir / "table.txt"));
    EXPECT_TRUE(fs::exists(root_ / "out" / entry.dir / "data.json"));
    EXPECT_TRUE(fs::exists(root_ / "out" / entry.dir / "data.csv"));
  }
}

TEST_F(StudyRunTest, JobShardsSkipNoSweepCellsAndMergeBitwise) {
  // The small study's two threshold cells (2 checkpointed jobs each) plus a
  // reward_design cell, a kind with no checkpointed sweep.
  auto entries = expand_study(small_study(), false);
  ASSERT_EQ(entries.size(), 2u);
  const auto design = expand_study(
      parse_study("study = design\n"
                  "kind = reward_design\n"
                  "tolerance = 1e-2\n"
                  "threshold_max_lead = 25\n"
                  "ku_values = 0.5\n"),
      false);
  ASSERT_EQ(design.size(), 1u);
  entries.push_back(design.front());
  ASSERT_TRUE(sweep_fingerprints(entries[2].spec).empty());

  // The reference: an unsharded run's results tree.
  write_study_results(run_study("mixed", "", entries, {}),
                      (root_ / "fresh").string());

  // Two job shards share one checkpoint directory. Each computes its stripe
  // of every checkpointed sweep and leaves the no-sweep cell, with zero
  // solver work, to the merge pass.
  RunOptions options;
  options.checkpoint.directory = (root_ / "ck").string();
  std::size_t computed = 0;
  for (std::uint32_t k = 0; k < 2; ++k) {
    options.checkpoint.shard = support::ShardSpec{k, 2};
    const StudyResult shard = run_study("mixed", "", entries, options);
    EXPECT_FALSE(shard.complete());
    ASSERT_EQ(shard.entries.size(), 3u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_FALSE(shard.entries[i].result.skipped);
    }
    const StudyEntryResult& skipped = shard.entries[2];
    EXPECT_TRUE(skipped.result.skipped);
    EXPECT_FALSE(skipped.result.complete());
    EXPECT_TRUE(skipped.result.tables.empty());
    EXPECT_EQ(skipped.timing.solver_solves, 0u);
    EXPECT_EQ(skipped.result.spec_fingerprint,
              spec_fingerprint(entries[2].spec));
    EXPECT_EQ(shard.outcome.jobs_total, 4u);
    computed += shard.outcome.computed;

    // The manifest marks the cell skipped, and it gets no directory.
    const fs::path out = root_ / ("shard" + std::to_string(k));
    write_study_results(shard, out.string());
    std::ifstream in(out / "manifest.json");
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_NE(os.str().find("\"status\": \"skipped\""), std::string::npos);
    EXPECT_FALSE(fs::exists(out / entries[2].dir));
  }
  EXPECT_EQ(computed, 4u);  // every job ran once, on its owning shard

  // A merge pass without a shard loads every job from the shared checkpoint
  // directory, computes none, and writes a tree bitwise-identical to the
  // fresh unsharded run.
  options.checkpoint.shard = {};
  const StudyResult merged = run_study("mixed", "", entries, options);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.outcome.loaded, 4u);
  EXPECT_EQ(merged.outcome.computed, 0u);
  write_study_results(merged, (root_ / "merged").string());
  EXPECT_EQ(snapshot(root_ / "fresh"), snapshot(root_ / "merged"));
}

TEST_F(StudyRunTest, UnshardedManifestCarriesNoCellShardFields) {
  const auto entries = expand_study(small_study(), false);
  write_study_results(run_study("small", "", entries, {}),
                      (root_ / "out").string());
  std::ifstream in(root_ / "out" / "manifest.json");
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str().find("cell_shard"), std::string::npos);
  EXPECT_EQ(os.str().find("cell_owner"), std::string::npos);
  EXPECT_EQ(os.str().find("skipped"), std::string::npos);
}

}  // namespace
}  // namespace ethsm::api
