#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

void SimStats::add(const aetr::core::RunResult& r) {
  events_in += r.events_in;
  words_out += r.words_out;
  batches += r.batches;
  handshakes += r.handshakes;
  sampling_cycles += r.activity.sampling_cycles;
  wakeups += r.activity.wakeups;
  fifo_writes += r.activity.fifo_writes;
  i2s_bits += r.activity.i2s_bits;
  sim_end_ps += r.sim_end.count_ps();
}

std::uint64_t SimStats::digest() const {
  const std::uint64_t fields[] = {events_in,   words_out,       batches,
                                  handshakes,  sampling_cycles, wakeups,
                                  fifo_writes, i2s_bits,
                                  static_cast<std::uint64_t>(sim_end_ps)};
  return fnv1a(fields, sizeof fields);
}

void Report::fail(const std::string& why, std::uint64_t ops) {
  failed += ops;
  if (failures.size() < 8) failures.push_back(why);
}

void Report::metric(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::note(std::string key, std::string value) {
  env.emplace_back(std::move(key), std::move(value));
}

void add_sim_metrics(Report& report) {
  const SimStats& s = report.sim;
  const auto count = [&report](const char* name, std::uint64_t v) {
    report.metric(name, static_cast<double>(v), "count");
  };
  count("sim.events_in", s.events_in);
  count("i2s.words_out", s.words_out);
  count("mcu.batches", s.batches);
  count("frontend.handshakes", s.handshakes);
  count("clockgen.sampling_cycles", s.sampling_cycles);
  count("clockgen.wakeups", s.wakeups);
  count("buffer.fifo_writes", s.fifo_writes);
  count("i2s.bits", s.i2s_bits);
  report.metric("core.sim_end_s", 1e-12 * static_cast<double>(s.sim_end_ps),
                "s");
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

PassLog::PassLog(std::size_t passes, std::size_t ops_per_pass) {
  preallocate(rates_, passes);
  preallocate(ends_, passes);
  preallocate(op_ms_, passes * ops_per_pass);
}

void PassLog::end_pass(double events_per_s) {
  rates_.push_back(events_per_s);
  ends_.push_back(op_ms_.size());
}

PassLog::Fastest PassLog::fastest_quarter() const {
  if (rates_.empty()) return {};
  std::vector<std::size_t> order(rates_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return rates_[a] > rates_[b];
  });
  Fastest f;
  std::vector<double> rates, ops;
  const std::size_t quarter = (order.size() + 3) / 4;
  for (const std::size_t i : order) {
    if (rates.size() >= quarter && ops.size() >= kMinOps) break;
    rates.push_back(rates_[i]);
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    ops.insert(ops.end(), op_ms_.begin() + static_cast<std::ptrdiff_t>(begin),
               op_ms_.begin() + static_cast<std::ptrdiff_t>(ends_[i]));
  }
  f.events_per_s = median(rates);
  f.op_ms_p50 = quantile(ops, 0.5);
  f.op_ms_p90 = quantile(ops, 0.9);
  f.passes = rates.size();
  f.ops = ops.size();
  return f;
}

void report_fastest(const PassLog& log, double window_s, Report& report) {
  const PassLog::Fastest f = log.fastest_quarter();
  report.metric("events_per_s", f.events_per_s, "1/s");
  report.metric("op_ms_p50", f.op_ms_p50, "ms");
  report.metric("op_ms_p90", f.op_ms_p90, "ms");
  report.note("timed_ops", std::to_string(log.ops()));
  report.note("timed_passes", std::to_string(log.passes()));
  report.note("timed_window_s", std::to_string(window_s));
  report.note("fastest_quarter_passes", std::to_string(f.passes));
  report.note("fastest_quarter_ops", std::to_string(f.ops));
}

void pin_thread(pthread_t thread, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::pthread_setaffinity_np(thread, sizeof set, &set) != 0) {
    throw std::runtime_error("cannot pin a thread to CPU " +
                             std::to_string(cpu));
  }
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

int CpuRotation::next() {
  const int cpu = cpus_[passes_++ % cpus_.size()];
  pin_thread(::pthread_self(), cpu);
  return cpu;
}

namespace {

/// A "Name:   123 kB" field of /proc/self/status, in KiB (0 if absent).
std::uint64_t status_kib(const char* field) {
  std::ifstream is{"/proc/self/status"};
  std::string line;
  const std::string key = std::string{field} + ":";
  while (std::getline(is, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stoull(line.substr(key.size()));
    }
  }
  return 0;
}

}  // namespace

void RssMeter::start() {
  {
    // "5" resets the peak RSS (VmHWM) to the current RSS (Linux >= 4.0).
    std::ofstream os{"/proc/self/clear_refs"};
    os << "5";
    os.flush();
    if (!os) throw std::runtime_error("cannot reset the peak RSS mark");
  }
  base_kib_ = status_kib("VmRSS");
}

double RssMeter::peak_growth_mib() const {
  const std::uint64_t peak = status_kib("VmHWM");
  const std::uint64_t grown = peak > base_kib_ ? peak - base_kib_ : 0;
  return static_cast<double>(grown) / 1024.0;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t digest_events(const aetr::aer::EventStream& events,
                            std::uint64_t h) {
  for (const auto& ev : events) {
    const std::int64_t t = ev.time.count_ps();
    h = fnv1a(&ev.address, sizeof ev.address, h);
    h = fnv1a(&t, sizeof t, h);
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
