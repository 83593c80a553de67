// Minimal CSV writer: `ethsm run --format csv` and study results trees dump
// each experiment's series as CSV so results can be re-plotted.

#ifndef ETHSM_SUPPORT_CSV_H
#define ETHSM_SUPPORT_CSV_H

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

  void add_row(const std::vector<std::string>& cells);

  [[nodiscard]] std::string str() const;

 private:
  static std::string escape(const std::string& cell);

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_CSV_H
