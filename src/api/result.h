// Uniform experiment output: typed series + metadata + provenance.
//
// Every kind of experiment produces the same shape -- one or more tables of
// named columns (numeric columns hold optional values: a point whose
// simulation runs are not all merged yet is *missing*, not zero), headline
// notes, sweep progress, and a provenance fingerprint of the resolved spec.
// The renderers (render.h) turn this one shape into the fixed-width text
// tables, CSV and JSON the CLI emits, which is what deduplicates the
// hand-rolled formatting the ten bench mains used to carry.

#ifndef ETHSM_API_RESULT_H
#define ETHSM_API_RESULT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/spec.h"
#include "support/checkpoint.h"

namespace ethsm::api {

/// One named column: numeric (optional doubles, fixed precision) or text.
struct Column {
  std::string header;
  bool numeric = true;
  int precision = 4;
  /// What a missing numeric value renders as in text tables ("-" for
  /// not-yet-merged sim columns, "never" for unprofitable thresholds). CSV
  /// always uses CsvWriter::kMissingSentinel; JSON uses null.
  std::string missing = "-";
  std::vector<std::optional<double>> numbers;  ///< when numeric
  std::vector<std::string> text;               ///< when !numeric

  [[nodiscard]] static Column make_numeric(std::string header,
                                           int precision = 4,
                                           std::string missing = "-") {
    Column c;
    c.header = std::move(header);
    c.precision = precision;
    c.missing = std::move(missing);
    return c;
  }
  [[nodiscard]] static Column make_text(std::string header) {
    Column c;
    c.header = std::move(header);
    c.numeric = false;
    return c;
  }

  [[nodiscard]] std::size_t rows() const noexcept {
    return numeric ? numbers.size() : text.size();
  }
  /// Rendered cell: TextTable::opt semantics for numeric columns.
  [[nodiscard]] std::string cell(std::size_t row) const;
};

struct ResultTable {
  std::string title;
  std::vector<Column> columns;

  [[nodiscard]] std::size_t rows() const noexcept {
    return columns.empty() ? 0 : columns.front().rows();
  }
};

struct ExperimentResult {
  /// The spec as executed (after preset resolution and --set overrides).
  ExperimentSpec spec;
  std::vector<ResultTable> tables;
  /// Headline observations ("paper: crossing at alpha = 0.163", ...).
  std::vector<std::string> notes;

  /// Index of the table exported by the CSV renderer (the historical bench
  /// CSV payload; the JSON renderer always exports everything).
  std::size_t csv_table = 0;

  /// Merged resume/shard progress across every sweep the run touched.
  support::SweepOutcome outcome;
  bool checkpoint_enabled = false;
  /// A sharded run left this spec to the merge pass: its kind has no
  /// checkpointed sweep, so nothing it computed would persist.
  bool skipped = false;

  /// Provenance: fingerprint of print_spec(spec) -- two results carry the
  /// same fingerprint iff they came from the same resolved spec.
  std::uint64_t spec_fingerprint = 0;
  /// Checkpoint-store fingerprints of the sweeps this run consulted.
  std::vector<std::uint64_t> sweep_fingerprints;

  [[nodiscard]] bool complete() const noexcept {
    return !skipped && outcome.complete();
  }
};

/// Fingerprint of a spec's canonical text form (the provenance digest).
[[nodiscard]] std::uint64_t spec_fingerprint(const ExperimentSpec& spec);

/// Copy of `result` with the loaded-vs-computed job split folded away.
/// Rendered artefacts must depend only on the merged results, never on how a
/// particular invocation satisfied the jobs (loaded from checkpoint vs
/// computed fresh) -- that split is what differs between a resumed run and a
/// fresh one, and both the study resume test and the serve bitwise-identity
/// contract assert the rendered bytes match across the two.
[[nodiscard]] ExperimentResult provenance_normalized(
    const ExperimentResult& result);

}  // namespace ethsm::api

#endif  // ETHSM_API_RESULT_H
