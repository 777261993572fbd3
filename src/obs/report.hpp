// `aetr-sweep report` — render the observability artifacts a sweep run left
// behind (energy ledgers, fleet health roll-ups, metrics CSVs, collapsed
// stacks) into one self-contained HTML dashboard with inline SVG charts. No
// external assets, no JavaScript, no timestamps: the output is a pure
// function of the input files, so reports produced from byte-identical
// artifact directories are themselves byte-identical (the `ledger` row of
// tests/determinism.py diffs the --jobs 1 and --jobs 4 reports).
#pragma once

#include <string>

namespace aetr::obs {

struct ReportSummary {
  std::size_t ledgers{0};       ///< *_ledger.csv files rendered
  std::size_t stacks{0};        ///< *_stack.txt files rendered
  std::size_t metrics{0};       ///< *_metrics.csv files rendered
  std::size_t health{0};        ///< fleet health CSVs rendered
  std::string out_path;         ///< the HTML file written
  [[nodiscard]] std::size_t total() const {
    return ledgers + stacks + metrics + health;
  }
};

/// Scan `in_dir` (sorted, non-recursive) for known observability artifacts
/// and write `<out_dir>/aetr_report.html`. Returns what was found; a summary
/// with total() == 0 means the directory held nothing renderable (the HTML
/// is still written, saying so). Throws std::runtime_error if `in_dir` does
/// not exist or the output cannot be written.
ReportSummary render_report(const std::string& in_dir,
                            const std::string& out_dir);

}  // namespace aetr::obs
