#include "support/csv.h"

#include <sstream>

#include "support/check.h"

namespace ethsm::support {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  ETHSM_EXPECTS(!header_.empty(), "csv header must not be empty");
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  ETHSM_EXPECTS(cells.size() == header_.size(), "csv row width mismatch");
  rows_.push_back(cells);
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string CsvWriter::str() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i) os << ',';
    os << escape(header_[i]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << escape(row[i]);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace ethsm::support
