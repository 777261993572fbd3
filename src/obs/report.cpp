#include "obs/report.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace aetr::obs {

namespace {

namespace fs = std::filesystem;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (const char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  cells.push_back(cell);
  return cells;
}

/// Fixed-width bar length in px; deterministic because width only depends on
/// the parsed values and the printf format.
std::string fmt_px(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", frac * 420.0);
  return buf;
}

std::string fmt_val(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

struct BarRow {
  std::string name;
  double value{0.0};
  std::string display;  ///< pre-formatted label (value + unit)
};

/// One horizontal SVG bar chart. Bars keep input order (which is already
/// deterministic: ledger sections are written in enum order).
void emit_bars(std::ostream& os, const std::string& title,
               const std::vector<BarRow>& rows, const char* color) {
  os << "<h4>" << html_escape(title) << "</h4>\n";
  if (rows.empty()) {
    os << "<p class=\"empty\">(no rows)</p>\n";
    return;
  }
  double max_v = 0.0;
  for (const auto& r : rows) max_v = std::max(max_v, r.value);
  const int row_h = 22;
  const int h = static_cast<int>(rows.size()) * row_h + 4;
  os << "<svg width=\"720\" height=\"" << h
     << "\" role=\"img\" xmlns=\"http://www.w3.org/2000/svg\">\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const int y = static_cast<int>(i) * row_h + 2;
    const double frac = max_v > 0.0 ? rows[i].value / max_v : 0.0;
    os << "<text x=\"0\" y=\"" << (y + 14)
       << "\" font-size=\"12\" font-family=\"monospace\">"
       << html_escape(rows[i].name) << "</text>\n";
    os << "<rect x=\"140\" y=\"" << y << "\" width=\"" << fmt_px(frac)
       << "\" height=\"" << (row_h - 6) << "\" fill=\"" << color << "\"/>\n";
    os << "<text x=\"566\" y=\"" << (y + 14)
       << "\" font-size=\"12\" font-family=\"monospace\">"
       << html_escape(rows[i].display) << "</text>\n";
  }
  os << "</svg>\n";
}

/// Render one *_ledger.csv (section,name,value,unit long format).
void emit_ledger(std::ostream& os, const fs::path& path) {
  std::ifstream is{path};
  std::string line;
  std::getline(is, line);  // header
  std::vector<BarRow> stages, outcomes, states;
  std::vector<std::array<std::string, 4>> totals;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    if (cells.size() != 4) continue;
    const std::string& section = cells[0];
    BarRow row;
    row.name = cells[1];
    row.value = std::strtod(cells[2].c_str(), nullptr);
    row.display = fmt_val(row.value) + " " + cells[3];
    if (section == "stage") {
      stages.push_back(row);
    } else if (section == "outcome_energy") {
      outcomes.push_back(row);
    } else if (section == "state") {
      states.push_back(row);
    } else if (section == "total" || section == "meta") {
      totals.push_back({section, cells[1], cells[2], cells[3]});
    }
  }
  os << "<section>\n<h3>" << html_escape(path.filename().string())
     << "</h3>\n";
  emit_bars(os, "Energy by pipeline stage", stages, "#4878a8");
  emit_bars(os, "Energy by outcome", outcomes, "#58a868");
  emit_bars(os, "Clock-state residency", states, "#a87848");
  os << "<table><tr><th>section</th><th>name</th><th>value</th>"
        "<th>unit</th></tr>\n";
  for (const auto& t : totals) {
    os << "<tr><td>" << html_escape(t[0]) << "</td><td>" << html_escape(t[1])
       << "</td><td>" << html_escape(t[2]) << "</td><td>" << html_escape(t[3])
       << "</td></tr>\n";
  }
  os << "</table>\n</section>\n";
}

/// Render a collapsed-stack file as the flame-graph frame table.
void emit_stack(std::ostream& os, const fs::path& path) {
  std::ifstream is{path};
  std::string line;
  std::vector<BarRow> rows;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    BarRow row;
    row.name = line.substr(0, sp);
    row.value = std::strtod(line.c_str() + sp + 1, nullptr);
    row.display = line.substr(sp + 1) + " pJ";
    rows.push_back(row);
  }
  os << "<section>\n<h3>" << html_escape(path.filename().string())
     << "</h3>\n<p>Collapsed stack (outcome;stage, picojoules) — feed to "
        "speedscope or flamegraph.pl for the interactive view.</p>\n";
  emit_bars(os, "Frames", rows, "#9858a8");
  os << "</section>\n";
}

/// Render a generic CSV (metrics snapshots, fleet health) as a table,
/// truncated to keep the report readable.
void emit_table(std::ostream& os, const fs::path& path,
                std::size_t max_rows) {
  std::ifstream is{path};
  std::string line;
  std::size_t shown = 0;
  std::size_t total = 0;
  std::ostringstream body;
  bool header = true;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++total;
    if (shown > max_rows) continue;  // keep counting rows, stop rendering
    ++shown;
    const auto cells = split_csv_line(line);
    body << "<tr>";
    for (const auto& c : cells) {
      body << (header ? "<th>" : "<td>") << html_escape(c)
           << (header ? "</th>" : "</td>");
    }
    body << "</tr>\n";
    header = false;
  }
  os << "<section>\n<h3>" << html_escape(path.filename().string())
     << "</h3>\n<table>\n"
     << body.str() << "</table>\n";
  if (total > shown) {
    os << "<p class=\"empty\">(" << (total - shown)
       << " more rows not shown)</p>\n";
  }
  os << "</section>\n";
}

}  // namespace

ReportSummary render_report(const std::string& in_dir,
                            const std::string& out_dir) {
  const fs::path in{in_dir};
  if (!fs::is_directory(in)) {
    throw std::runtime_error("report: input directory not found: " + in_dir);
  }
  fs::create_directories(out_dir);

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(in)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  ReportSummary summary;
  summary.out_path = (fs::path{out_dir} / "aetr_report.html").string();
  std::ofstream os{summary.out_path, std::ios::binary};
  if (!os) {
    throw std::runtime_error("report: cannot write " + summary.out_path);
  }

  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta "
        "charset=\"utf-8\">\n<title>aetr observability report</title>\n"
        "<style>\n"
        "body{font-family:sans-serif;max-width:900px;margin:2em auto;"
        "color:#222;}\n"
        "table{border-collapse:collapse;font-family:monospace;"
        "font-size:12px;}\n"
        "th,td{border:1px solid #ccc;padding:2px 8px;text-align:left;}\n"
        "section{margin-bottom:2em;border-bottom:1px solid #eee;}\n"
        ".empty{color:#888;font-style:italic;}\n"
        "</style>\n</head>\n<body>\n"
        "<h1>aetr observability report</h1>\n"
        // No paths, no timestamps: the report is a pure function of the
        // artifact FILES, so two directories with byte-identical contents
        // render byte-identical reports wherever they live.
        "<p>Deterministic render of the observability artifacts in the "
        "input directory.</p>\n";

  for (const auto& p : files) {
    const std::string name = p.filename().string();
    if (ends_with(name, "_ledger.csv")) {
      emit_ledger(os, p);
      ++summary.ledgers;
    } else if (ends_with(name, "_stack.txt")) {
      emit_stack(os, p);
      ++summary.stacks;
    } else if (ends_with(name, "_health.csv")) {
      emit_table(os, p, 64);
      ++summary.health;
    } else if (ends_with(name, "_metrics.csv")) {
      emit_table(os, p, 48);
      ++summary.metrics;
    }
  }

  if (summary.total() == 0) {
    os << "<p class=\"empty\">No observability artifacts found. Run e.g. "
          "<code>aetr-sweep fig8 --ledger --metrics</code> or "
          "<code>aetr-sweep fleet</code> first.</p>\n";
  }
  os << "</body>\n</html>\n";
  return summary;
}

}  // namespace aetr::obs
