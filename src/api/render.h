// Renderers for ExperimentResult: one code path for every experiment's
// human-readable tables, CSV series and JSON export (previously duplicated
// across the bench mains).

#ifndef ETHSM_API_RENDER_H
#define ETHSM_API_RENDER_H

#include <iosfwd>
#include <string>

#include "api/result.h"

namespace ethsm::api {

/// Output format of `ethsm run --format ...`.
enum class OutputFormat { table, csv, json };

[[nodiscard]] OutputFormat output_format_from_string(std::string_view s);

/// Human-readable rendering: title, checkpoint progress (when enabled),
/// every table, then the notes. On an incomplete sweep the tables and notes
/// are suppressed -- a sharded process never prints a partial curve as if it
/// were the merged result -- and only the progress summary is printed.
void render_text(const ExperimentResult& result, std::ostream& os);

/// CSV of result.tables[result.csv_table]: numeric headers as-is, missing
/// values as CsvWriter::kMissingSentinel (the historical value_or(-1)
/// convention). Empty string when the result has no tables.
[[nodiscard]] std::string render_csv(const ExperimentResult& result);

/// Machine-readable export of everything: resolved spec (canonical text and
/// fingerprint), every table (missing values as null), notes and progress.
[[nodiscard]] std::string render_json(const ExperimentResult& result);

}  // namespace ethsm::api

#endif  // ETHSM_API_RENDER_H
