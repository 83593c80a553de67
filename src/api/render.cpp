#include "api/render.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "api/spec.h"
#include "support/csv.h"
#include "support/json.h"
#include "support/table.h"

namespace ethsm::api {

using support::json_escape;
using support::json_number;

OutputFormat output_format_from_string(std::string_view s) {
  if (s == "table") return OutputFormat::table;
  if (s == "csv") return OutputFormat::csv;
  if (s == "json") return OutputFormat::json;
  throw SpecError("unknown output format '" + std::string(s) +
                  "' (want table, csv or json)");
}

void render_text(const ExperimentResult& result, std::ostream& os) {
  if (!result.spec.title.empty()) {
    os << "== " << result.spec.title << " ==\n";
  }
  if (result.checkpoint_enabled) {
    os << "checkpoint: " << result.outcome.loaded << " loaded + "
       << result.outcome.computed << " computed of "
       << result.outcome.jobs_total << " jobs";
    if (result.outcome.skipped > 0) {
      os << "; " << result.outcome.skipped
         << " left for other shards or a later resume";
    }
    os << "\n";
  }
  if (result.skipped) {
    os << "Skipped: no checkpointed sweep, so a sharded run leaves this spec "
          "to the merge pass (the same --checkpoint-dir, no --shard).\n";
    return;
  }
  if (!result.complete()) {
    os << "Partial sweep: aggregates suppressed until every shard's records "
          "are present; re-run with the same --checkpoint-dir to merge.\n";
    return;
  }
  for (const ResultTable& table : result.tables) {
    os << "\n";
    std::vector<std::string> headers;
    headers.reserve(table.columns.size());
    for (const Column& c : table.columns) headers.push_back(c.header);
    support::TextTable text(std::move(headers));
    if (!table.title.empty()) text.set_title(table.title);
    for (std::size_t row = 0; row < table.rows(); ++row) {
      std::vector<std::string> cells;
      cells.reserve(table.columns.size());
      for (const Column& c : table.columns) cells.push_back(c.cell(row));
      text.add_row(std::move(cells));
    }
    text.print(os);
  }
  if (!result.notes.empty()) os << "\n";
  for (const std::string& note : result.notes) os << note << "\n";
}

std::string render_csv(const ExperimentResult& result) {
  if (!result.complete() || result.tables.empty() ||
      result.csv_table >= result.tables.size()) {
    return {};
  }
  const ResultTable& table = result.tables[result.csv_table];
  std::vector<std::string> headers;
  headers.reserve(table.columns.size());
  for (const Column& c : table.columns) headers.push_back(c.header);
  support::CsvWriter csv(std::move(headers));
  for (std::size_t row = 0; row < table.rows(); ++row) {
    std::vector<std::string> cells;
    cells.reserve(table.columns.size());
    for (const Column& c : table.columns) {
      if (c.numeric) {
        const bool has = row < c.numbers.size() && c.numbers[row];
        std::ostringstream os;
        os.precision(12);
        os << (has ? *c.numbers[row] : support::CsvWriter::kMissingSentinel);
        cells.push_back(os.str());
      } else {
        cells.push_back(row < c.text.size() ? c.text[row] : std::string{});
      }
    }
    csv.add_row(cells);
  }
  return csv.str();
}

std::string render_json(const ExperimentResult& result) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"kind\": \"" << to_string(result.spec.kind) << "\",\n";
  os << "  \"title\": \"" << json_escape(result.spec.title) << "\",\n";
  os << "  \"spec\": \"" << json_escape(print_spec(result.spec)) << "\",\n";
  os << "  \"spec_fingerprint\": \"" << support::hex64(result.spec_fingerprint)
     << "\",\n";
  os << "  \"complete\": " << (result.complete() ? "true" : "false") << ",\n";
  os << "  \"jobs\": {\"total\": " << result.outcome.jobs_total
     << ", \"loaded\": " << result.outcome.loaded
     << ", \"computed\": " << result.outcome.computed
     << ", \"skipped\": " << result.outcome.skipped << "},\n";
  os << "  \"tables\": [";
  for (std::size_t t = 0; t < result.tables.size(); ++t) {
    const ResultTable& table = result.tables[t];
    os << (t ? ",\n" : "\n");
    os << "    {\"title\": \"" << json_escape(table.title)
       << "\", \"columns\": [";
    for (std::size_t c = 0; c < table.columns.size(); ++c) {
      const Column& column = table.columns[c];
      os << (c ? ",\n" : "\n");
      os << "      {\"header\": \"" << json_escape(column.header)
         << "\", \"values\": [";
      for (std::size_t row = 0; row < column.rows(); ++row) {
        if (row) os << ", ";
        if (column.numeric) {
          const auto& v = column.numbers[row];
          os << (v ? json_number(*v) : "null");
        } else {
          os << '"' << json_escape(column.text[row]) << '"';
        }
      }
      os << "]}";
    }
    os << "\n    ]}";
  }
  os << "\n  ],\n";
  os << "  \"notes\": [";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(result.notes[i]) << '"';
  }
  os << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace ethsm::api
