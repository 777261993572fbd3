// Result-table rendering: aligned console tables (the paper-style rows the
// bench harnesses print) and CSV export for plotting.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace aetr {

/// One RFC 4180 CSV field: a cell holding a comma, a double quote or a
/// newline is wrapped in quotes with its quotes doubled; any other cell is
/// written as is. Table::write_csv and runtime::CsvSink both escape here.
[[nodiscard]] std::string csv_escape(const std::string& cell);

/// Column-aligned text table with an optional CSV mirror.
///
/// Usage:
///   Table t({"rate (evt/s)", "avg error", "power (mW)"});
///   t.add_row({fmt(r), fmt(err), fmt(p)});
///   t.print(std::cout);
///   t.write_csv("fig6.csv");
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Number formatting helper: %.*g with the given significant digits.
  [[nodiscard]] static std::string num(double v, int digits = 5);

  void print(std::ostream& os) const;
  void write_csv(const std::string& path) const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const {
    return rows_[i];
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace aetr
