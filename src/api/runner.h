// run(spec): the single entry point executing any ExperimentSpec by
// dispatching to the library's sweep drivers (analysis::revenue_curve,
// analysis::threshold_curve, sim::run_many and friends). The `ethsm` CLI,
// the results daemon and the tests all go through here; for every
// paper preset the produced series are bitwise-identical to calling the
// drivers directly (asserted by tests/api/preset_equivalence_test).

#ifndef ETHSM_API_RUNNER_H
#define ETHSM_API_RUNNER_H

#include <vector>

#include "api/result.h"
#include "api/spec.h"
#include "support/checkpoint.h"

namespace ethsm::api {

struct RunOptions {
  /// Resume/shard persistence threaded into every checkpoint-aware sweep the
  /// spec touches. Under a shard, kinds without a sweep driver are skipped.
  support::SweepCheckpoint checkpoint;
};

/// Executes the spec. On an incomplete (sharded / job-budgeted) sweep the
/// result carries only the outcome accounting; tables/notes are populated
/// only when every job is merged (render_text enforces the suppression). A
/// sharded run of a kind with no checkpointed sweep computes nothing and
/// returns a `skipped` result: the merge pass computes it once.
[[nodiscard]] ExperimentResult run(const ExperimentSpec& spec,
                                   const RunOptions& options = {});

/// The checkpoint-store fingerprints run(spec) consults, in the order it
/// runs their sweeps, computed without running anything. Study manifests
/// list them, and `ethsm checkpoint-stats --prune` keeps exactly the union
/// of these over all registered presets.
[[nodiscard]] std::vector<std::uint64_t> sweep_fingerprints(
    const ExperimentSpec& spec);

}  // namespace ethsm::api

#endif  // ETHSM_API_RUNNER_H
