#include "aer/trace.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace aetr::aer {

void write_trace(std::ostream& os, const EventStream& events) {
  os << "# aetr trace v1: <time_ps> <address>\n";
  for (const auto& ev : events) {
    os << ev.time.count_ps() << ' ' << ev.address << '\n';
  }
}

void save_trace(const std::string& path, const EventStream& events) {
  std::ofstream f{path};
  if (!f) throw std::runtime_error("save_trace: cannot open " + path);
  write_trace(f, events);
  if (!f) throw std::runtime_error("save_trace: write failed for " + path);
}

std::optional<Event> TraceReader::next() {
  while (std::getline(is_, line_)) {
    ++line_no_;
    const auto first = line_.find_first_not_of(" \t\r");
    if (first == std::string::npos || line_[first] == '#') continue;
    std::istringstream ls{line_};
    Time::Rep t_ps = 0;
    unsigned address = 0;
    if (!(ls >> t_ps >> address) || address > kAddressMask) {
      throw std::runtime_error("read_trace: malformed line " +
                               std::to_string(line_no_) + ": " + line_);
    }
    const Event ev{static_cast<std::uint16_t>(address), Time::ps(t_ps)};
    if (ev.time > kLatestEventTime) {
      throw std::runtime_error("read_trace: time out of range at line " +
                               std::to_string(line_no_) + ": " + line_);
    }
    if (last_ && ev.time < *last_) {
      throw std::runtime_error("read_trace: events out of order at line " +
                               std::to_string(line_no_));
    }
    last_ = ev.time;
    return ev;
  }
  return std::nullopt;
}

EventStream read_trace(std::istream& is) {
  EventStream events;
  TraceReader reader{is};
  while (const auto ev = reader.next()) events.push_back(*ev);
  return events;
}

EventStream load_trace(const std::string& path) {
  std::ifstream f{path};
  if (!f) throw std::runtime_error("load_trace: cannot open " + path);
  return read_trace(f);
}

}  // namespace aetr::aer
