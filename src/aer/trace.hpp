// AER trace file I/O.
//
// A minimal line-oriented text format (one "<time_ps> <address>" pair per
// line, '#' comments) so recorded spike streams can be replayed across runs
// and exchanged with external tools. Functionally equivalent to the .aedat
// logs produced by jAER-style tooling, without the binary framing.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>

#include "aer/event.hpp"

namespace aetr::aer {

/// Incremental parser behind read_trace(), one event per next() (nullopt
/// at the end), so a pipe is consumed as it arrives. Skips blank lines (a
/// CR line end included) and '#' comments; throws std::runtime_error
/// naming the line on a malformed or out-of-order one, or one whose time is
/// past kLatestEventTime.
class TraceReader {
 public:
  explicit TraceReader(std::istream& is) : is_{is} {}
  std::optional<Event> next();

 private:
  std::istream& is_;
  std::string line_;
  std::size_t line_no_{0};
  std::optional<Time> last_;
};

/// Write a stream to `os` in trace format.
void write_trace(std::ostream& os, const EventStream& events);

/// Write a stream to a file; throws std::runtime_error on I/O failure.
void save_trace(const std::string& path, const EventStream& events);

/// Parse a trace from `is`; throws std::runtime_error on malformed input.
/// Events must be (and are verified to be) time-sorted.
EventStream read_trace(std::istream& is);

/// Load a trace file; throws std::runtime_error on failure.
EventStream load_trace(const std::string& path);

}  // namespace aetr::aer
