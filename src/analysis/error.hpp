// Timestamp-accuracy analysis (paper §5.1).
//
// The paper evaluates conversion accuracy with a Matlab model of the clock
// generation unit fed by Poisson spike streams, assuming a perfect 50 %-duty
// clock. sweep_error() is that model: it pushes Poisson inter-spike
// intervals through the exact SamplingSchedule quantiser and accumulates the
// relative timestamp error, tracking the carry-over between the true event
// instant and the sampling edge where the interface actually consumed it.
// analyze_records() applies the same scoring to ground-truth records from
// the cycle-level DES, letting tests prove model and simulator agree.
#pragma once

#include <cstdint>
#include <vector>

#include "clockgen/schedule.hpp"
#include "frontend/aer_frontend.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace aetr {
class BlobWriter;
class BlobReader;
}  // namespace aetr

namespace aetr::analysis {

/// The three operating regions of Fig. 6 (§5.1).
enum class Region { kInactive, kActive, kHighActivity };

[[nodiscard]] const char* to_string(Region r);

/// Quantisation-error statistics over one stream.
///
/// Two averages are reported. `mean_rel_error` is the per-event mean of
/// |measured - true| / true; it is dominated by the shortest intervals
/// (whose relative error diverges as the interval shrinks towards the
/// sampling period). `weighted_rel_error` is sum(|measured - true|) /
/// sum(true) — the total timing error per unit of measured time — which is
/// the reading consistent with the paper's Fig. 6 levels ("significantly
/// below the analytic 3 % bound" across the whole active region).
struct ErrorStats {
  RunningStats rel_error;        ///< per-event |measured - true| / true
  std::uint64_t events{0};
  std::uint64_t saturated{0};    ///< tagged with the saturated timestamp
  std::uint64_t sub_nyquist{0};  ///< true interval below 2 * current Tmin
  double abs_err_sec{0.0};       ///< sum of |measured - true|
  double true_sec{0.0};          ///< sum of true intervals
  double abs_err_unsat_sec{0.0}; ///< ... over non-saturated intervals only
  double true_unsat_sec{0.0};

  [[nodiscard]] double mean_rel_error() const { return rel_error.mean(); }
  [[nodiscard]] double weighted_rel_error() const {
    return true_sec > 0.0 ? abs_err_sec / true_sec : 0.0;
  }
  /// Timing accuracy of the *correlated* (non-saturated) intervals — the
  /// reading that matters for workloads with long deliberate silences,
  /// where saturated tags dominate weighted_rel_error by design.
  [[nodiscard]] double weighted_rel_error_unsaturated() const {
    return true_unsat_sec > 0.0 ? abs_err_unsat_sec / true_unsat_sec : 0.0;
  }
  [[nodiscard]] double frac_saturated() const {
    return events ? static_cast<double>(saturated) / static_cast<double>(events)
                  : 0.0;
  }
};

/// Options for the model-based sweep.
struct SweepOptions {
  std::size_t n_events = 4000;   ///< intervals measured per rate point
  std::uint64_t seed = 1;
  std::uint32_t sync_edges = 0;  ///< 0 = the paper's ideal Matlab model
  Time wake_latency = Time::zero();
  std::uint16_t address_range = 128;
  /// Physical floor on inter-request gaps: the AER handshake serialises
  /// spikes, and the paper's interface senses inter-spike times of 130 ns
  /// or more (§5) — the sender stalls faster streams. Without this floor
  /// the relative error of unphysically tiny intervals diverges.
  Time min_gap = Time::ns(130.0);
};

/// Measure a Poisson stream of the given mean rate through the schedule.
[[nodiscard]] ErrorStats sweep_error(const clockgen::ScheduleConfig& cfg,
                                     double rate_hz,
                                     const SweepOptions& opt = {});

/// One (rate, error) point of a Fig. 6 curve.
struct CurvePoint {
  double rate_hz{0.0};
  ErrorStats stats;
  Region region{Region::kActive};
};

/// Sweep a log-spaced rate grid (one Fig. 6 series).
[[nodiscard]] std::vector<CurvePoint> sweep_error_curve(
    const clockgen::ScheduleConfig& cfg, double rate_lo_hz, double rate_hi_hz,
    std::size_t points, const SweepOptions& opt = {});

/// Streaming form of analyze_records(): folds capture records one at a
/// time, carrying the previous request time across calls. A long-lived
/// session scores its capture log chunk by chunk and drops each chunk
/// afterwards; folding a log split at any points gives bitwise the stats
/// analyze_records() gives over the whole log.
class RecordScorer {
 public:
  RecordScorer(Time tick_unit, Time saturation_span)
      : tick_unit_{tick_unit}, saturation_span_{saturation_span} {}

  void add(const frontend::CaptureRecord& rec);
  void add(const std::vector<frontend::CaptureRecord>& records);

  [[nodiscard]] const ErrorStats& stats() const { return stats_; }

  /// Serialize the running fold (the scale factors come from the
  /// constructor).
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  Time tick_unit_;
  Time saturation_span_;
  bool have_prev_{false};
  Time prev_request_{Time::zero()};
  ErrorStats stats_;
};

/// Score the ground-truth capture log of a DES run: compares each AETR
/// timestamp against the true inter-request interval.
[[nodiscard]] ErrorStats analyze_records(
    const std::vector<frontend::CaptureRecord>& records, Time tick_unit,
    Time saturation_span);

/// Per-event relative errors from a capture log (for Fig. 7b histograms).
[[nodiscard]] std::vector<double> record_errors(
    const std::vector<frontend::CaptureRecord>& records, Time tick_unit,
    Time saturation_span);

/// Region classification: inactive when most intervals outlive the awake
/// span (exp(-r*T_awake) > 1/2), high-activity when fewer than 10 % of
/// intervals ever reach the first division, active otherwise.
[[nodiscard]] Region classify_region(const clockgen::ScheduleConfig& cfg,
                                     double rate_hz);

/// The analytic worst-case relative error of the division scheme, ~2/theta
/// (the paper's "3 % bound" for theta_div = 64).
[[nodiscard]] double analytic_error_bound(std::uint32_t theta_div);

}  // namespace aetr::analysis
