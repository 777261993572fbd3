// Helpers shared by the figure definitions in src/sweeps/*.cpp.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "runtime/sweep.hpp"
#include "sweeps/figures.hpp"

namespace aetr::sweeps::detail {

/// printf-format one number ("%.6g", ...) into a CSV or table cell.
inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// Sweep options for a figure: --jobs and progress from the CLI, the root
/// seed from --seed or else the figure's own default.
inline runtime::SweepOptions sweep_options(const FigureOptions& opt,
                                           std::uint64_t default_seed,
                                           runtime::Row header) {
  runtime::SweepOptions so;
  so.jobs = opt.jobs;
  so.seed = opt.seed ? opt.seed : default_seed;
  so.header = std::move(header);
  so.progress = opt.progress;
  return so;
}

}  // namespace aetr::sweeps::detail
