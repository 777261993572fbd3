#include "runtime/sink.hpp"

#include <stdexcept>
#include <utility>

#include "util/table.hpp"

namespace aetr::runtime {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

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

// --- JsonSink --------------------------------------------------------------

JsonSink::JsonSink(const std::string& path)
    : file_{open_or_throw(path)}, os_{&file_} {}

JsonSink::JsonSink(std::ostream& os) : os_{&os} {}

void JsonSink::begin(const Row& header) {
  header_ = header;
  *os_ << "[";
}

void JsonSink::row(const Row& cells) {
  *os_ << (first_row_ ? "\n" : ",\n") << " {";
  first_row_ = false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string key =
        i < header_.size() ? header_[i] : "col" + std::to_string(i);
    *os_ << (i ? ", " : "") << '"' << json_escape(key) << "\": \""
         << json_escape(cells[i]) << '"';
  }
  *os_ << '}';
}

void JsonSink::end() {
  *os_ << "\n]\n";
  os_->flush();
}

// --- MultiSink -------------------------------------------------------------

MultiSink::MultiSink(std::vector<ResultSink*> sinks)
    : sinks_{std::move(sinks)} {}

void MultiSink::begin(const Row& header) {
  for (auto* s : sinks_) s->begin(header);
}

void MultiSink::row(const Row& cells) {
  for (auto* s : sinks_) s->row(cells);
}

void MultiSink::end() {
  for (auto* s : sinks_) s->end();
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
