#include "runtime/sink.hpp"

#include <stdexcept>
#include <utility>

#include "util/table.hpp"

namespace aetr::runtime {

namespace {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream f{path};
  if (!f) throw std::runtime_error{"cannot open sink file: " + path};
  return f;
}

}  // namespace

// --- CsvSink ---------------------------------------------------------------

CsvSink::CsvSink(const std::string& path)
    : file_{open_or_throw(path)}, os_{&file_} {}

CsvSink::CsvSink(std::ostream& os) : os_{&os} {}

void CsvSink::begin(const Row& header) { write_line(header); }

void CsvSink::row(const Row& cells) { write_line(cells); }

void CsvSink::end() { os_->flush(); }

void CsvSink::write_line(const Row& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) *os_ << ',';
    *os_ << csv_escape(cells[i]);
  }
  *os_ << '\n';
}

// --- OrderedCollector ------------------------------------------------------

OrderedCollector::OrderedCollector(
    std::size_t total, ResultSink* sink,
    std::function<void(std::size_t, std::size_t)> on_progress)
    : total_{total}, sink_{sink}, on_progress_{std::move(on_progress)} {}

void OrderedCollector::add(std::size_t index, std::vector<Row> rows) {
  std::lock_guard lock{mutex_};
  ++done_;
  pending_.emplace(index, std::move(rows));
  while (!pending_.empty() && pending_.begin()->first == next_flush_) {
    if (sink_) {
      for (const auto& r : pending_.begin()->second) sink_->row(r);
    }
    pending_.erase(pending_.begin());
    ++next_flush_;
  }
  if (on_progress_) on_progress_(done_, total_);
}

std::size_t OrderedCollector::done() const {
  std::lock_guard lock{mutex_};
  return done_;
}

}  // namespace aetr::runtime
