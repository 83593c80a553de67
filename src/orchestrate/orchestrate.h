// Sweep coordinator behind `ethsm orchestrate` (ROADMAP: "distributed sweep
// orchestration").
//
// The coordinator never computes jobs itself. It splits a run into `units`
// `--shard k/N` job stripes -- for a study, a stripe of every cell's
// checkpointed sweeps, so each unit is about 1/units of the whole -- launches
// them as worker processes through a WorkerTransport (local subprocesses or
// ssh hosts), and after *every* worker exit, clean or not, imports the unit's
// checkpoint records into the coordinator's store via
// CheckpointStore::import_directory. Because workers persist each job as
// they finish and the import walk recovers a killed worker's valid prefix,
// retrying a unit only recomputes what its predecessor never flushed.
//
// Failure handling mirrors the study runner's fail-soft vocabulary: a unit
// whose worker exits nonzero (or dies on a signal) is retried with
// exponential backoff up to RetryPolicy::attempts, on whichever slot is free
// -- a unit is not pinned to the worker that first ran it, which is what
// re-assigns work away from a dead machine. A slot that fails several units
// in a row (a down host, a broken binary) is quarantined so the healthy
// slots absorb its queue; the last slot standing is never quarantined.
//
// The coordinator does NOT merge or render results -- after run_orchestrate
// returns (and its import stores are destroyed, keeping the one-writer-per-
// file contract), the CLI runs the ordinary in-process merge pass over the
// shared checkpoint directory, which is what makes an orchestrated artefact
// bitwise-identical to a single-process run.

#ifndef ETHSM_ORCHESTRATE_ORCHESTRATE_H
#define ETHSM_ORCHESTRATE_ORCHESTRATE_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "orchestrate/transport.h"
#include "support/retry.h"

namespace ethsm::orchestrate {

/// Dead-worker test seam: SIGKILL one specific (unit, attempt) after a
/// delay, parsed from ETHSM_ORCHESTRATE_KILL="unit:attempt[:delay_ms]"
/// (attempt is 1-based). The CI smoke and the orchestrate tests use this to
/// prove that a worker killed mid-run is retried and its partial records
/// are recovered; it is inert unless the variable is set.
struct KillPlan {
  bool active = false;
  std::size_t unit = 0;
  int attempt = 1;
  double delay_ms = 0.0;
};

/// KillPlan from ETHSM_ORCHESTRATE_KILL; inactive when unset or malformed.
[[nodiscard]] KillPlan kill_plan_from_env();

/// Final state of one shard work unit (one row of orchestrate-manifest.json).
struct UnitOutcome {
  std::size_t unit = 0;
  std::string shard;   ///< "k/N" as passed to --shard
  std::string worker;  ///< slot that ran the final attempt
  int attempts = 0;
  bool ok = false;
  std::string error;   ///< last attempt's ExitStatus::describe() when !ok
  std::size_t records_imported = 0;  ///< checkpoint records this unit added
  /// Wall time summed over every attempt (launch to settle, import
  /// included). Rendered into the manifest as the masked "timing" object --
  /// it is nondeterministic and must never feed a bitwise comparison.
  double wall_ms = 0.0;
};

struct OrchestrateOutcome {
  std::vector<UnitOutcome> units;
  std::size_t records_imported = 0;
  std::size_t slots_quarantined = 0;
  /// Worker launches across every unit, retries included (the heartbeat's
  /// counters, repeated in the manifest so a log scrape is not required).
  std::size_t attempts_total = 0;
  std::size_t units_ok = 0;
  std::size_t units_failed = 0;

  [[nodiscard]] bool ok() const noexcept {
    for (const UnitOutcome& unit : units) {
      if (!unit.ok) return false;
    }
    return true;
  }
};

struct OrchestrateConfig {
  /// Launch/sync mechanism; must outlive run_orchestrate. Not owned.
  WorkerTransport* transport = nullptr;

  /// The ethsm invocation being distributed, minus binary and shard flags:
  /// {"run", "fig10", "--quick"} or {"run", "--study", "grid.study"}.
  /// The coordinator appends --checkpoint-dir (the unit's private dir),
  /// --shard k/N and a scratch --out (workers must not race on one output).
  std::vector<std::string> base_args;

  /// Number of shard work units (N of k/N). More units than slots is the
  /// norm: finer units re-balance across surviving workers when one dies.
  std::size_t units = 0;

  /// Coordinator checkpoint directory records are imported into.
  std::string coordinator_dir;

  /// Coordinator-local scratch for per-attempt logs and ssh staging
  /// (typically <coordinator_dir>/orchestrate).
  std::string work_dir;

  /// Per-unit attempt budget and backoff between a unit's failures.
  support::RetryPolicy retry;

  /// Consecutive failures on one slot before it stops receiving work.
  int quarantine_after = 3;

  KillPlan kill;

  /// Live status sink (one line per scheduling event); may be empty.
  std::function<void(const std::string&)> status;

  /// Scheduler poll interval while workers run.
  double poll_interval_ms = 20.0;

  /// Quiet stretches still get a progress heartbeat through `status` at most
  /// this often (<= 0 disables): long-running units would otherwise leave
  /// the operator staring at silence. `--quiet` empties `status`, which
  /// silences the heartbeat too.
  double heartbeat_interval_ms = 2000.0;
};

/// Runs every unit to success or attempt exhaustion and imports all
/// recovered records. Throws std::invalid_argument on an unusable config
/// (no transport, no slots, no units); worker failures never throw -- they
/// are UnitOutcome rows with ok == false.
[[nodiscard]] OrchestrateOutcome run_orchestrate(
    const OrchestrateConfig& config);

/// Writes orchestrate-manifest.json: overall status plus one entry per unit
/// (worker, shard, attempts, status ok|failed, records, error) -- the same
/// fail-soft vocabulary as the study manifest. Throws std::runtime_error on
/// I/O failure.
void write_orchestrate_manifest(const OrchestrateOutcome& outcome,
                                const std::string& path);

}  // namespace ethsm::orchestrate

#endif  // ETHSM_ORCHESTRATE_ORCHESTRATE_H
