// Result sinks and the ordered collector.
//
// Jobs finish in whatever order the pool schedules them; sinks must see rows
// in job-index order so a parallel sweep writes the same bytes as a serial
// one. OrderedCollector is the reorder buffer between the two: workers hand
// it (index, rows) pairs, it buffers out-of-order arrivals and flushes the
// contiguous prefix to the attached sink — streaming, not batch: row i is on
// disk as soon as jobs 0..i have finished, even mid-sweep.
#pragma once

#include <cstddef>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace aetr::runtime {

using Row = std::vector<std::string>;

/// Receives ordered rows. begin() is called once before the first row,
/// end() once after the last; implementations flush on end().
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void begin(const Row& header) { (void)header; }
  virtual void row(const Row& cells) = 0;
  virtual void end() {}
};

/// Streams rows as CSV, each cell escaped by aetr::csv_escape (RFC 4180).
class CsvSink final : public ResultSink {
 public:
  /// Write to an owned file (throws std::runtime_error if unopenable).
  explicit CsvSink(const std::string& path);
  /// Write to a caller-owned stream (kept alive by the caller).
  explicit CsvSink(std::ostream& os);

  void begin(const Row& header) override;
  void row(const Row& cells) override;
  void end() override;

 private:
  void write_line(const Row& cells);
  std::ofstream file_;
  std::ostream* os_;
};

/// Thread-safe reorder buffer: add() in any order, rows reach the sink in
/// strictly increasing index order. One job may contribute zero or more rows.
class OrderedCollector {
 public:
  /// `on_progress(done, total)` fires after each job lands (in completion
  /// order, under the collector lock — keep it cheap).
  OrderedCollector(std::size_t total, ResultSink* sink,
                   std::function<void(std::size_t, std::size_t)> on_progress =
                       nullptr);

  /// Record job `index`'s rows; flushes the contiguous prefix to the sink.
  void add(std::size_t index, std::vector<Row> rows);

  /// Jobs landed so far.
  [[nodiscard]] std::size_t done() const;

 private:
  mutable std::mutex mutex_;
  std::size_t total_;
  std::size_t done_{0};
  std::size_t next_flush_{0};
  ResultSink* sink_;
  std::function<void(std::size_t, std::size_t)> on_progress_;
  std::map<std::size_t, std::vector<Row>> pending_;
};

}  // namespace aetr::runtime
