#include <gtest/gtest.h>

#include <stdexcept>

#include "api/render.h"
#include "support/csv.h"
#include "support/table.h"

namespace ethsm::support {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"alpha", "Us"});
  t.add_row({"0.30", "0.356"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("0.356"), std::string::npos);
  EXPECT_NE(out.find('+'), std::string::npos);
}

TEST(TextTable, TitleAppearsFirst) {
  TextTable t({"x"});
  t.set_title("Table II");
  t.add_row({"1"});
  EXPECT_EQ(t.render().rfind("Table II", 0), 0u);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NumAndPctFormatting) {
  EXPECT_EQ(TextTable::num(0.25, 2), "0.25");
  EXPECT_EQ(TextTable::num(1.0 / 3.0, 4), "0.3333");
  EXPECT_EQ(TextTable::pct(0.2634), "26.34%");
  EXPECT_EQ(TextTable::pct(0.5, 0), "50%");
}

TEST(TextTable, ColumnsAlignToWidestCell) {
  TextTable t({"h"});
  t.add_row({"wide-cell-content"});
  const std::string out = t.render();
  // Every line between rules has the same length.
  std::size_t expected = out.find('\n');
  for (std::size_t pos = 0; pos < out.size();) {
    const std::size_t next = out.find('\n', pos);
    EXPECT_EQ(next - pos, expected);
    pos = next + 1;
  }
}

TEST(CsvWriter, BasicOutput) {
  CsvWriter w({"gamma", "threshold"});
  w.add_row(std::vector<std::string>{"0.5", "0.163"});
  const std::string s = w.str();
  EXPECT_EQ(s.rfind("gamma,threshold\n", 0), 0u);
  EXPECT_NE(s.find("0.5,0.163"), std::string::npos);
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  CsvWriter w({"name"});
  w.add_row(std::vector<std::string>{"a,b"});
  w.add_row(std::vector<std::string>{"quote\"inside"});
  const std::string s = w.str();
  EXPECT_NE(s.find("\"a,b\""), std::string::npos);
  EXPECT_NE(s.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(CsvWriter, RejectsWidthMismatch) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row(std::vector<std::string>{"1"}),
               std::invalid_argument);
}

TEST(CsvWriter, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter({}), std::invalid_argument);
}

TEST(TextTable, OptionalCellRendering) {
  // The shared optional-column rendering used by every experiment table with
  // simulation cross-check columns ("-" for a not-yet-merged point).
  EXPECT_EQ(TextTable::opt(0.1234, 3), "0.123");
  EXPECT_EQ(TextTable::opt(std::nullopt), "-");
  EXPECT_EQ(TextTable::opt(std::nullopt, 4, "never"), "never");
}

TEST(RenderCsv, MissingNumberUsesTheSentinel) {
  // The CSV export writes a missing numeric cell (a sim column not yet
  // merged, a threshold that is never reached) as CsvWriter's -1 sentinel.
  api::ExperimentResult result;
  api::ResultTable table;
  table.columns = {api::Column::make_numeric("alpha"),
                   api::Column::make_numeric("us_sim")};
  table.columns[0].numbers = {0.3};
  table.columns[1].numbers = {std::nullopt};
  result.tables.push_back(table);
  EXPECT_EQ(api::render_csv(result), "alpha,us_sim\n0.3,-1\n")
      << "missing optionals must encode as the historical -1 sentinel";
}

}  // namespace
}  // namespace ethsm::support
