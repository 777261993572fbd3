#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>

namespace aetr {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out{"\""};
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

Table::Table(std::vector<std::string> header) : header_{std::move(header)} {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "  " << row[c];
      os << std::string(widths[c] - row[c].size(), ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::write_csv(const std::string& path) const {
  std::ofstream f{path};
  if (!f) return;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) f << ',';
      f << csv_escape(row[c]);
    }
    f << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace aetr
