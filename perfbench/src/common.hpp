// Shared pieces of the perfbench workloads: run options, the result record
// every workload fills, simulated-statistics counters, percentiles, peak
// RSS growth, the pass log and CPU rotation that keep timings steady on a
// shared host, and input digests.
#pragma once

#include <pthread.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "aer/event.hpp"
#include "core/scenario.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Scratch directory for files the workload writes while it runs
  /// (figure CSVs, snapshot blobs, the gateway socket).
  std::string work_dir;
  /// Where the traced run's Chrome trace JSON goes.
  std::string out_dir;
};

/// Counters of the simulated system. They depend only on the generated
/// inputs, so a change that only speeds the simulator up must leave them
/// identical; digest() makes that a one-number comparison.
struct SimStats {
  std::uint64_t events_in{0};
  std::uint64_t words_out{0};
  std::uint64_t batches{0};
  std::uint64_t handshakes{0};
  std::uint64_t sampling_cycles{0};
  std::uint64_t wakeups{0};
  std::uint64_t fifo_writes{0};
  std::uint64_t i2s_bits{0};
  std::int64_t sim_end_ps{0};

  void add(const aetr::core::RunResult& r);
  [[nodiscard]] std::uint64_t digest() const;
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// What one benchmark run reports.
struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;  ///< first few failure reasons
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  SimStats sim;
  std::uint64_t input_digest{0};
  std::vector<std::pair<std::string, std::string>> env;

  void fail(const std::string& why, std::uint64_t ops = 1);
  void metric(std::string name, double value, std::string unit);
  void note(std::string key, std::string value);
};

/// Add the simulated-statistics counters to `report` as per-layer metrics.
void add_sim_metrics(Report& report);

// --- statistics -------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Seconds between two now_ns() readings.
[[nodiscard]] inline double secs(std::int64_t from_ns, std::int64_t to_ns) {
  return 1e-9 * static_cast<double>(to_ns - from_ns);
}

// --- memory -----------------------------------------------------------------

/// Peak resident-set growth over a baseline. start() resets the kernel's
/// peak-RSS mark (/proc/self/clear_refs) and records the current RSS, so
/// memory the inputs already hold is excluded. Throws when the mark cannot
/// be reset: the peak would then include everything before start().
class RssMeter {
 public:
  void start();
  [[nodiscard]] double peak_growth_mib() const;

 private:
  std::uint64_t base_kib_{0};
};

/// Allocate and touch room for `n` elements, then empty the vector. Samples
/// recorded later reuse that memory, so the benchmark's own bookkeeping does
/// not count as the program's RSS growth. Loops stop before `capacity()`.
template <typename T>
void preallocate(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  v.clear();
}

// --- timed passes -----------------------------------------------------------

/// The passes of a timed window (a sweep, a stream, a round of sessions)
/// and the latencies of their ops.
///
/// Contention from other tenants of the host only ever slows a pass down,
/// and on a shared virtual machine it moves whole runs by 15-20 %. So the
/// end-to-end figures come from the fastest quarter of the run's passes
/// (at least one, and more until they hold kMinOps ops, so that at least
/// 100 lie beyond the 90th percentile): the median of their rates, and
/// latency quantiles over their ops. A slower program is slower in its
/// fastest passes too.
class PassLog {
 public:
  static constexpr std::size_t kMinOps = 1000;

  /// Preallocate room (see preallocate()) for `passes` passes of up to
  /// `ops_per_pass` ops each.
  PassLog(std::size_t passes, std::size_t ops_per_pass);

  [[nodiscard]] bool full() const {
    return rates_.size() == rates_.capacity();
  }
  [[nodiscard]] std::size_t passes() const { return rates_.size(); }
  [[nodiscard]] std::size_t ops() const { return op_ms_.size(); }

  void add_op(double ms) { op_ms_.push_back(ms); }
  void end_pass(double events_per_s);

  struct Fastest {
    double events_per_s{0.0};
    double op_ms_p50{0.0};
    double op_ms_p90{0.0};
    std::size_t passes{0};
    std::size_t ops{0};
  };
  [[nodiscard]] Fastest fastest_quarter() const;

 private:
  std::vector<double> rates_;
  std::vector<std::size_t> ends_;  ///< end of each pass's ops in op_ms_
  std::vector<double> op_ms_;
};

/// Add events_per_s, op_ms_p50 and op_ms_p90 from the fastest quarter of
/// `log`, plus the op and pass counts, to `report`.
void report_fastest(const PassLog& log, double window_s, Report& report);

/// Pin `thread` to `cpu`; throws when the kernel refuses.
void pin_thread(pthread_t thread, int cpu);

/// Moves the calling thread onto the next CPU the process may use, once per
/// pass. On a shared host one virtual CPU can stay slow for minutes; a run
/// that stayed on it would be slow throughout. Rotating lets the fastest
/// passes (PassLog) come from whichever CPUs were fast.
class CpuRotation {
 public:
  CpuRotation();
  /// Pin the calling thread to the next CPU and return that CPU, so a
  /// thread working in lockstep with this one can follow it.
  int next();
  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t passes_{0};
};


// --- digests ----------------------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t h = kFnvOffset);
[[nodiscard]] std::uint64_t digest_events(const aetr::aer::EventStream& events,
                                          std::uint64_t h = kFnvOffset);
[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace perfbench
