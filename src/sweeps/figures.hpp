// Figure/ablation sweep definitions on top of aetr::runtime.
//
// Each run_*() builds a parameter grid, maps one simulation job per grid
// point onto the work-stealing pool, and post-processes the ordered outputs
// into the paper-style table, the CSV series, and the self-checks. The
// `aetr-sweep` CLI is the one front door to them (`aetr-sweep fig8`, ...),
// so a figure is defined in exactly one place: every paper figure (Fig. 2,
// 6, 7, 8) and every study is a registry entry, and no standalone bench
// main reproduces one.
//
// Determinism: for a fixed (figure, seed, grid) every output file is
// byte-identical whatever `jobs` is — see runtime/sweep.hpp for the
// contract. Figure default seeds reproduce the published repo numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/sweep.hpp"
#include "util/table.hpp"

namespace aetr::sweeps {

struct FigureOptions {
  /// Worker threads; 0 = hardware_concurrency.
  std::size_t jobs = 0;
  /// Root seed; 0 = the figure's own default (stable across releases).
  std::uint64_t seed = 0;
  /// Output directory for CSV series; "" = results/ (or $AETR_OUT).
  std::string out_dir;
  /// Reduced grid + event counts for tests and smoke runs. Paper checks
  /// are skipped (their thresholds are only meaningful on the full grid);
  /// consistency checks still run.
  bool quick = false;
  /// Per-job sim-time telemetry for the figures that support it
  /// (fig8, ablation-agreement). Each job writes deterministically named
  /// artifacts — aetr_<figure>_j<NNN>_trace.json/.csv, _metrics.csv — into
  /// the same directory as the series CSVs; outputs are byte-identical for
  /// any `jobs` value. No-ops when the build has AETR_TELEMETRY=0.
  bool trace = false;
  bool metrics = false;
  /// Per-job energy-attribution ledgers (obs/ledger.hpp) for fig8 and the
  /// fleet health roll-up for the fleet figure. Each job writes
  /// aetr_<figure>_j<NNN>_ledger.csv and _stack.txt (collapsed-stack flame
  /// graph) next to the series CSVs; the fleet figure writes
  /// aetr_fleet_health.csv. Byte-identical for any `jobs` value, and —
  /// unlike telemetry — the ledger never disqualifies the fast path.
  bool ledger = false;
  /// Forwarded to runtime::SweepOptions::progress.
  std::function<void(std::size_t, std::size_t)> progress;
};

/// One self-check against the paper (or internal consistency).
struct Check {
  std::string name;
  bool ok{false};
  std::string detail;
};

struct FigureResult {
  Table table;                    ///< the paper-style series table
  runtime::SweepReport report;    ///< per-job + whole-sweep metrics
  std::vector<Check> checks;      ///< --quick skips the paper checks
  std::string csv_path;           ///< main series CSV
  std::string points_csv_path;    ///< long-format per-job CSV (streamed)

  [[nodiscard]] bool ok() const {
    for (const auto& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

/// Fig. 2: the sampling-clock waveform (aetr_fig2.vcd) and its edge table
/// (aetr_fig2.csv). Closed-form, so it runs no sweep job and takes no seed.
FigureResult run_fig2(const FigureOptions& opt);
FigureResult run_fig6(const FigureOptions& opt);
/// Fig. 7: a synthesised cochlea word (fixed stimulus seed 2024, which
/// --seed does not change): its rate profile (aetr_fig7a_rate.csv) and the
/// timestamp-error distribution at theta_div 16/32/64, one job each
/// (aetr_fig7b_errors.csv). --quick runs the same grid.
FigureResult run_fig7(const FigureOptions& opt);
FigureResult run_fig8(const FigureOptions& opt);
FigureResult run_ablation_ndiv(const FigureOptions& opt);
FigureResult run_ablation_agreement(const FigureOptions& opt);
/// The design studies in sweeps/ablations.cpp: A2 batch threshold and
/// buffer size, A3 minimum inter-spike interval and CAVIAR margin, A5
/// system energy with the MCU, A6 timestamp width, A7 ring jitter and
/// drift, A8 adaptive theta_div. Each fixes its own stimulus seeds as part
/// of its definition, so FigureOptions::seed (`--seed`) does not reseed
/// these six.
FigureResult run_ablation_buffer(const FigureOptions& opt);
FigureResult run_ablation_min_interspike(const FigureOptions& opt);
FigureResult run_ablation_mcu(const FigureOptions& opt);
FigureResult run_ablation_width(const FigureOptions& opt);
FigureResult run_ablation_jitter(const FigureOptions& opt);
FigureResult run_ablation_adaptive(const FigureOptions& opt);
/// R1: scenario runs under a scaled FaultPlan — timestamp error, delivered
/// fraction and power vs. the fault level, with the zero level checked
/// bit-identical against a fault-free baseline.
FigureResult run_faults(const FigureOptions& opt);
/// F2: fleet-level energy proportionality — energy-per-delivered-event and
/// delivery-latency tails vs. fleet size N at several activity levels, N
/// interfaces contending for one bandwidth-limited gateway uplink
/// (fleet/fleet.hpp). Writes aetr_fleet.csv, aetr_fleet_points.csv and
/// aetr_fleet_summary.json.
FigureResult run_fleet_figure(const FigureOptions& opt);

/// The figure registry behind `aetr-sweep <figure>` and `aetr-sweep all`.
struct FigureDef {
  const char* name;     ///< CLI subcommand ("fig6", "ablation-ndiv", ...)
  const char* summary;
  FigureResult (*run)(const FigureOptions&);
};
[[nodiscard]] const std::vector<FigureDef>& figures();
[[nodiscard]] const FigureDef* find_figure(const std::string& name);

/// Print the table, the checks, and the sweep metrics; returns 0 when all
/// checks passed, 1 otherwise — the CLI/CI exit code.
int report_figure(const FigureResult& result, std::ostream& os);

}  // namespace aetr::sweeps
