// Study layer: one file = a *matrix* of ExperimentSpecs (ROADMAP: "spec-level
// sweep composition").
//
// A study file is a base spec plus three kinds of study-level keys, all using
// the same line-oriented `key = value` grammar as spec files (parse_spec):
//
//   study = fig9_sec6_crossover      # required: the study's name (and the
//                                    # results subdirectory ethsm writes)
//   title = ...                      # optional display title
//
//   # every plain spec key is the *base* spec, shared by all cells:
//   kind = revenue
//   alphas = 0.1:0.45:0.05
//
//   # named variant blocks: each is one branch overriding the base
//   variant.byzantium.rewards = byzantium
//   variant.ritz.rewards = table:1.0,0.5,0.25,0.125
//
//   # matrix axes: a cross-product over spec keys, values separated by '|'
//   matrix.gamma = 0|0.5|1
//
//   # quick overrides, applied only when expanding with quick = true
//   quick.sim_runs = 2
//
// Expansion is deterministic: variants in file order (a single implicit
// variant named "base" when there are none), then the matrix axes in file
// order with the *last* axis varying fastest (row-major). Each cell's
// entries are concatenated base < variant < matrix < quick < --set overrides
// and resolved through the exact spec_from_entries path `ethsm run --set`
// uses, so unknown matrix/variant keys and malformed values are SpecErrors
// with the same messages, and every expanded spec round-trips through
// print_spec.
//
// run_study executes the expansion through run(spec) with ONE shared
// checkpoint directory (sweep fingerprints already disambiguate the drivers'
// stores), one rolled-up SweepOutcome, and a cross-spec --max-new-jobs
// budget; write_study_results renders one results tree
//   <out>/<entry-dir>/{table.txt,data.csv,data.json} + <out>/manifest.json
// whose files are provenance-stable: an interrupted-and-resumed study writes
// a tree bitwise-identical to an uninterrupted one (asserted under
// `ctest -L study`).

#ifndef ETHSM_API_STUDY_H
#define ETHSM_API_STUDY_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "api/result.h"
#include "api/runner.h"
#include "api/spec.h"

namespace ethsm::api {

/// One matrix axis: a spec key and the values it cross-products over.
struct StudyAxis {
  std::string key;
  std::vector<std::string> values;

  [[nodiscard]] bool operator==(const StudyAxis&) const = default;
};

/// One named variant block: entries overriding the base spec.
struct StudyVariant {
  std::string name;
  SpecEntries overrides;

  [[nodiscard]] bool operator==(const StudyVariant&) const = default;
};

/// The parsed (unexpanded) study: base entries + variants + matrix axes.
struct StudySpec {
  std::string name;
  std::string title;
  SpecEntries base;              ///< plain spec keys, in file order
  std::vector<StudyVariant> variants;  ///< file order of first appearance
  std::vector<StudyAxis> matrix;       ///< file order of first appearance
  SpecEntries quick_overrides;   ///< applied only when expanding quick
};

/// One expanded cell: a concrete spec plus its human-readable name and the
/// filesystem-safe directory it renders into.
struct StudyEntry {
  std::string name;  ///< "ritz, gamma=0.5" -- manifest / expand output
  std::string dir;   ///< sanitized name, unique within the study
  ExperimentSpec spec;
};

/// Text -> StudySpec. SpecError on grammar problems: missing `study = ...`,
/// malformed study/variant names, duplicate variant names, duplicate or
/// empty matrix axes. Base-spec key validation happens at expansion.
[[nodiscard]] StudySpec parse_study(std::string_view text);

/// Deterministic ordered expansion (see header comment for the order).
/// `overrides` are --set assignments applied last to every cell. Unknown
/// keys anywhere -- base, variant, matrix, quick, overrides -- are
/// SpecErrors via spec_from_entries.
[[nodiscard]] std::vector<StudyEntry> expand_study(
    const StudySpec& study, bool quick,
    const std::vector<std::string>& overrides = {});

/// The built-in "paper" study behind `ethsm run --all`: every registered
/// preset as one entry, in registry order.
[[nodiscard]] std::vector<StudyEntry> paper_study_entries(bool quick);

/// Observability record for one executed cell. Everything in here is
/// run-mode-dependent (wall time is nondeterministic; job and solver counts
/// differ between fresh and resumed runs), so it is rendered into the
/// manifest as ONE flat `"timing": {...}` object -- flat numeric keys, no
/// nested braces -- that bitwise-tree comparisons mask with the regex
/// `,\s*"timing": \{[^}]*\}` (tools/compare_trees.py and the study tests).
/// Never put deterministic result data in here.
struct StudyEntryTiming {
  double wall_ms = 0.0;            ///< run(spec) wall time, retries included
  std::uint64_t jobs_computed = 0; ///< sweep jobs computed this invocation
  std::uint64_t jobs_loaded = 0;   ///< sweep jobs loaded from checkpoints
  std::uint64_t solver_solves = 0;     ///< solves performed (registry delta)
  std::uint64_t solver_iterations = 0; ///< stationary sweeps (registry delta)
  std::uint64_t solver_fallbacks = 0;  ///< gs -> power fallbacks taken
};

/// run(spec) over every entry with shared checkpointing and roll-up.
struct StudyEntryResult {
  std::string name;
  std::string dir;
  /// `result.skipped` marks a cell a sharded run left to the merge pass: it
  /// carries its spec/sweep fingerprints but no tables.
  ExperimentResult result;
  /// Fail-soft: run(spec) threw on every attempt. The error lands in the
  /// manifest (`"status": "failed"`), the siblings still complete, and the
  /// CLI exits nonzero with a summary table.
  bool failed = false;
  std::string error;  ///< what() of the last attempt's exception
  int attempts = 0;   ///< run(spec) invocations (retries included)
  /// Per-cell timing/accounting (masked in bitwise tree comparisons).
  StudyEntryTiming timing;
};

/// How run_study treats a cell whose run(spec) throws: every failure is
/// caught and recorded; `retries` extra attempts (exponential backoff via
/// support::retry) happen before the cell is declared failed.
struct StudyFailurePolicy {
  int retries = 0;
  double initial_backoff_ms = 250.0;
  /// Test seam forwarded to support::RetryPolicy::sleeper.
  std::function<void(double)> sleeper;
};

struct StudyResult {
  std::string name;
  std::string title;
  std::vector<StudyEntryResult> entries;
  /// Rolled-up progress across every entry's sweeps; max-new-jobs budgets
  /// are consumed across entries (a study is one interruptible unit).
  support::SweepOutcome outcome;
  bool checkpoint_enabled = false;

  [[nodiscard]] bool complete() const noexcept {
    for (const StudyEntryResult& e : entries) {
      if (e.failed || !e.result.complete()) return false;
    }
    return true;
  }
  [[nodiscard]] bool any_failed() const noexcept {
    for (const StudyEntryResult& e : entries) {
      if (e.failed) return true;
    }
    return false;
  }
};

/// Called after each entry finishes (1-based index, total, the entry's
/// result) -- the CLI streams per-spec progress through this.
using StudyProgress =
    std::function<void(std::size_t, std::size_t, const StudyEntryResult&)>;

/// Under a shard (`options.checkpoint.shard`), each cell computes only its
/// stripe of every checkpointed sweep, and a cell with no checkpointed sweep
/// is skipped (fingerprints but no tables); a later run without a shard --
/// sharing the checkpoint directory -- merges everything from disk.
[[nodiscard]] StudyResult run_study(std::string name, std::string title,
                                    const std::vector<StudyEntry>& entries,
                                    const RunOptions& options = {},
                                    const StudyProgress& progress = {},
                                    const StudyFailurePolicy& failure = {});

/// Renders the results tree under `out_root` (created with parents):
/// per-entry {table.txt, data.csv (complete tables only), data.json} and a
/// manifest.json listing every entry's spec fingerprint, sweep fingerprints
/// and files. File contents depend only on the merged results -- never on
/// how many jobs this invocation loaded vs computed -- so resumed trees are
/// bitwise-identical to fresh ones. Throws std::runtime_error on I/O errors.
void write_study_results(const StudyResult& study, const std::string& out_root);

}  // namespace ethsm::api

#endif  // ETHSM_API_STUDY_H
