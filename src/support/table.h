// Fixed-width ASCII table rendering for the experiment regenerators.
// Every bench binary prints the paper's tables/figure series through this so
// the output format stays uniform and diffable across runs.

#ifndef ETHSM_SUPPORT_TABLE_H
#define ETHSM_SUPPORT_TABLE_H

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace ethsm::support {

/// A simple column-aligned table: set headers, append rows, render.
class TextTable {
 public:
  TextTable() = default;
  explicit TextTable(std::vector<std::string> headers);

  void set_title(std::string title) { title_ = std::move(title); }
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with fixed precision.
  static std::string num(double value, int precision = 4);
  /// Convenience: percentage with fixed precision (0.25 -> "25.00%").
  static std::string pct(double value, int precision = 2);
  /// Optional column cell: the shared "-"-for-missing rendering used by every
  /// experiment table with simulation cross-check columns (a point whose sim
  /// runs are not all merged yet has no sim value).
  static std::string opt(const std::optional<double>& value, int precision = 4,
                         const char* missing = "-");

  [[nodiscard]] std::string render() const;
  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_TABLE_H
