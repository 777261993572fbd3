// The three benchmark workloads (see ../README.md for why each exists).
// Each fills a Report: end-to-end metrics when options.trace is false,
// per-layer metrics from a separate traced run when it is true.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Batch Fig. 8 sweep through sweeps::run_fig8 at jobs = 1.
Report run_fig8_sweep(const Options& options);
/// One long service session driven through net::Connection::on_bytes with
/// a bounded session buffer and periodic snapshots.
Report run_stream_snapshot(const Options& options);
/// Many short fleet-node sessions over a Unix socket to a net::Server.
Report run_gateway_fleet(const Options& options);

/// Stop looping once a phase has used its share of the run.
struct Deadline {
  std::int64_t end_ns;
  explicit Deadline(double seconds)
      : end_ns{now_ns() + static_cast<std::int64_t>(seconds * 1e9)} {}
  [[nodiscard]] bool passed() const { return now_ns() >= end_ns; }
};

}  // namespace perfbench
