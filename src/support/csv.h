// Minimal CSV writer: `ethsm run --format csv` and study results trees dump
// each experiment's series as CSV so results can be re-plotted.

#ifndef ETHSM_SUPPORT_CSV_H
#define ETHSM_SUPPORT_CSV_H

#include <optional>
#include <string>
#include <vector>

namespace ethsm::support {

class CsvWriter {
 public:
  /// Sentinel written for missing optional values (the historical bench
  /// convention: `value_or(-1)`; every real series in this project is either
  /// a probability, a rate or a block count, so -1 is unambiguous).
  static constexpr double kMissingSentinel = -1.0;

  explicit CsvWriter(std::vector<std::string> header);

  void add_row(const std::vector<double>& values);
  void add_row(const std::vector<std::string>& cells);
  /// Optional-valued row: missing cells become kMissingSentinel. (Named
  /// distinctly: a braced list of doubles must keep binding to add_row.)
  void add_optional_row(const std::vector<std::optional<double>>& values);

  [[nodiscard]] std::string str() const;
  /// Writes to `path`; returns false (does not throw) on I/O failure so bench
  /// binaries keep printing to stdout even on a read-only filesystem.
  bool write_file(const std::string& path) const;

 private:
  static std::string escape(const std::string& cell);

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_CSV_H
