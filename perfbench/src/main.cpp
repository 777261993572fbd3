// perfbench: end-to-end and per-layer benchmark of the aetr simulator.
//
//   perfbench --workload fig8_sweep|stream_snapshot|gateway_fleet
//             --seed N --seconds S --trace 0|1 --work-dir DIR --out-dir DIR
//
// Prints a human-readable report and, as its last line, one
// "PERFBENCH_RESULT {...}" JSON record (metrics with units, op counts,
// correctness, simulated statistics, digests, run environment) that
// perfbench/run.py turns into the benchmark's result line. Exit status 0
// when every correctness gate passed, 1 when one failed, 2 on usage or
// runtime errors.
#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const Options& o, const Report& r) {
  std::ostringstream os;
  os << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
     << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"correct\":" << (r.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    os << (i ? "," : "") << '"' << json_escape(r.failures[i]) << '"';
  }
  os << "],\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? "," : "") << '"' << m.name << "\":{\"value\":" << num(m.value)
       << ",\"unit\":\"" << m.unit << "\"}";
  }
  const SimStats& s = r.sim;
  os << "},\"sim\":{\"events_in\":" << s.events_in
     << ",\"words_out\":" << s.words_out << ",\"batches\":" << s.batches
     << ",\"handshakes\":" << s.handshakes
     << ",\"sampling_cycles\":" << s.sampling_cycles
     << ",\"wakeups\":" << s.wakeups << ",\"fifo_writes\":" << s.fifo_writes
     << ",\"i2s_bits\":" << s.i2s_bits << ",\"sim_end_ps\":" << s.sim_end_ps
     << "},\"sim_digest\":\"" << hex64(s.digest()) << "\",\"input_digest\":\""
     << hex64(r.input_digest) << "\",\"env\":{";
  for (std::size_t i = 0; i < r.env.size(); ++i) {
    os << (i ? "," : "") << '"' << r.env[i].first << "\":\""
       << json_escape(r.env[i].second) << '"';
  }
  os << "}}";
  return os.str();
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fig8_sweep|stream_snapshot|"
               "gateway_fleet --seed N --seconds S --trace 0|1 "
               "--work-dir DIR --out-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Stop when the driving script goes away instead of running on orphaned.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--work-dir") {
      o.work_dir = val;
    } else if (key == "--out-dir") {
      o.out_dir = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (o.work_dir.empty() || o.out_dir.empty()) {
    return usage("--work-dir and --out-dir are required");
  }
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    std::filesystem::create_directories(o.work_dir);
    std::filesystem::create_directories(o.out_dir);
    Report r;
    if (o.workload == "fig8_sweep") {
      r = run_fig8_sweep(o);
    } else if (o.workload == "stream_snapshot") {
      r = run_stream_snapshot(o);
    } else if (o.workload == "gateway_fleet") {
      r = run_gateway_fleet(o);
    } else {
      return usage(("unknown workload '" + o.workload + "'").c_str());
    }
    if (o.trace) add_sim_metrics(r);
    r.note("nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
    r.note("hardware_concurrency",
           std::to_string(std::thread::hardware_concurrency()));
    r.note("compiler", PERFBENCH_COMPILER);
    r.note("build_type", std::string{PERFBENCH_BUILD_TYPE} +
                             (PERFBENCH_LTO ? "+LTO" : ""));
    r.note("work_dir", o.work_dir);
    std::cout << "PERFBENCH_RESULT " << result_json(o, r) << std::endl;
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
}
