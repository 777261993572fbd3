#include "core/summary.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace aetr::core {

void write_run_summary(std::ostream& os, const RunResult& r) {
  char buf[64];
  const auto f64 = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string{buf};
  };
  os << "# aetr-serve run summary\n";
  os << "events_in = " << r.events_in << '\n';
  os << "words_out = " << r.words_out << '\n';
  os << "batches = " << r.batches << '\n';
  os << "fifo_overflows = " << r.fifo_overflows << '\n';
  os << "handshakes = " << r.handshakes << '\n';
  os << "caviar_violations = " << r.caviar_violations << '\n';
  os << "protocol_violations = " << r.protocol_violations << '\n';
  os << "decoded = " << r.delivered << '\n';
  os << "error.events = " << r.error.events << '\n';
  os << "error.saturated = " << r.error.saturated << '\n';
  os << "error.mean_rel = " << f64(r.error.mean_rel_error()) << '\n';
  os << "faults.injected_total = " << r.faults.injected_total() << '\n';
  os << "faults.recovered_total = " << r.faults.recovered_total() << '\n';
  os << "faults.watchdog_resyncs = " << r.faults.watchdog_resyncs << '\n';
  os << "faults.crc_rejected_words = " << r.faults.crc_rejected_words << '\n';
  os << "sim_end_ps = " << r.sim_end.count_ps() << '\n';
  os << "input_rate_hz = " << f64(r.input_rate_hz) << '\n';
  os << "average_power_w = " << f64(r.average_power_w) << '\n';
}

std::string run_summary_text(const RunResult& r) {
  std::ostringstream os;
  write_run_summary(os, r);
  return os.str();
}

void write_run_summary_file(const std::string& path, const RunResult& r) {
  std::ofstream os{path, std::ios::trunc};
  if (!os) throw std::runtime_error("summary: cannot open " + path);
  write_run_summary(os, r);
  if (!os) throw std::runtime_error("summary: write failed for " + path);
}

}  // namespace aetr::core
