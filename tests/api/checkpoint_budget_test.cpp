// `--max-new-jobs N` bounds the jobs one invocation computes (docs/CLI.md),
// not the jobs of each sweep: a cell runs its whole sweep list as one pool
// region under one budget taken in (sweep, index) order. For every
// registered preset with a checkpointed sweep list, a quick run with a budget
// of 2 computes exactly 2 jobs, and resuming on the same store then renders
// the same artefacts (table.txt, data.csv and data.json of a results tree) as
// a fresh run.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/presets.h"
#include "api/render.h"
#include "api/runner.h"
#include "support/temp_dir.h"

namespace ethsm::api {
namespace {

/// Presets whose quick spec has at least one checkpointed sweep.
std::vector<std::string> checkpointed_presets() {
  std::vector<std::string> names;
  for (const Preset& preset : presets()) {
    if (!sweep_fingerprints(preset.spec(true)).empty()) {
      names.push_back(preset.name);
    }
  }
  return names;
}

/// The files write_study_results derives from a result, concatenated.
std::string artefacts(const ExperimentResult& result) {
  const ExperimentResult view = provenance_normalized(result);
  std::ostringstream os;
  render_text(view, os);
  return os.str() + "\n--\n" + render_csv(view) + "\n--\n" + render_json(view);
}

class PerCell : public ::testing::TestWithParam<std::string> {};

TEST_P(PerCell, BudgetOfTwoComputesTwoThenResumesToTheFreshTree) {
  const ExperimentSpec spec = preset_spec(GetParam(), /*quick=*/true);

  RunOptions budgeted;
  budgeted.checkpoint.directory = testutil::temp_path("store");
  budgeted.checkpoint.max_new_jobs = 2;
  const ExperimentResult partial = run(spec, budgeted);
  ASSERT_GE(partial.outcome.jobs_total, 2u);
  EXPECT_EQ(partial.outcome.computed, 2u);
  EXPECT_EQ(partial.outcome.loaded, 0u);
  EXPECT_EQ(partial.outcome.skipped, partial.outcome.jobs_total - 2);

  RunOptions resume;
  resume.checkpoint.directory = budgeted.checkpoint.directory;
  const ExperimentResult resumed = run(spec, resume);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.outcome.loaded, 2u);
  EXPECT_EQ(resumed.outcome.computed, partial.outcome.jobs_total - 2);

  EXPECT_EQ(artefacts(resumed), artefacts(run(spec, RunOptions{})));
}

INSTANTIATE_TEST_SUITE_P(CheckpointBudget, PerCell,
                         ::testing::ValuesIn(checkpointed_presets()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace ethsm::api
