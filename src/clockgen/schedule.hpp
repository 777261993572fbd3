// Pure mathematical model of the Fig. 1 variable-frequency sampling
// schedule ("AETRsampling" pseudocode).
//
// After every sampled event the sampling period restarts at Tmin; every
// `theta_div` cycles the period doubles; after `n_div` doublings plus a full
// dwell at the slowest period the clock shuts off. The timestamp counter
// increments by 2^level per sampling cycle, so its value always equals the
// elapsed time in Tmin units, quantised to the current period — this is the
// "configurable increment step" of the paper's timestamp counter (§4).
//
// All functions are closed-form in the elapsed time since the last schedule
// reset; the DES ClockGenerator and the analysis sweeps share this class, so
// the cycle-level simulator and the paper's-Matlab-model equivalent are
// provably quantising identically.
//
// Every level start S_k = theta_div * Tmin * (2^k - 1) is a whole number of
// Tmin, so every query goes through one locator: with f = floor(elapsed /
// Tmin), elapsed >= S_k <=> f >= theta_div * (2^k - 1), so the level is
// min(top, bit_width(floor(elapsed / (theta_div * Tmin)) + 1) - 1) and the
// edge index within it a subtraction and a shift by k. Both quotients are
// a multiply by a precomputed reciprocal (util/reciprocal.hpp), exact over
// the whole non-negative time range: no level scan and no hardware divide.
#pragma once

#include <cstdint>
#include <vector>

#include "util/reciprocal.hpp"
#include "util/time.hpp"

namespace aetr::clockgen {

/// Static parameters of the sampling schedule.
struct ScheduleConfig {
  Time tmin = Time::ns(1e3 / 15.0);  ///< base sampling period (15 MHz)
  std::uint32_t theta_div = 64;      ///< cycles between successive divisions
  std::uint32_t n_div = 8;           ///< divisions before clock shutdown
  bool divide_enabled = true;        ///< false = naïve constant frequency
  bool shutdown_enabled = true;      ///< false = divide but never sleep
};

/// Closed-form sampling schedule. Elapsed times are relative to the last
/// reset edge (elapsed 0 is itself a sampling edge with counter value 0).
class SamplingSchedule {
 public:
  explicit SamplingSchedule(const ScheduleConfig& config);

  [[nodiscard]] const ScheduleConfig& config() const { return cfg_; }

  /// Sampling period while at division level k (0 <= k <= n_div).
  [[nodiscard]] Time period_of_level(std::uint32_t k) const;

  /// Elapsed time at which division level k begins (S_0 = 0).
  [[nodiscard]] Time level_start(std::uint32_t k) const;

  /// Total awake time after a reset: theta_div*Tmin*(2^(n_div+1)-1).
  /// Time::max() when shutdown or division is disabled.
  [[nodiscard]] Time awake_span() const;

  /// Whole Tmin periods in `span` (>= 0): floor(span / Tmin), by the
  /// schedule's reciprocal.
  [[nodiscard]] std::uint64_t tmin_ticks(Time span) const {
    return tmin_recip_.divide(static_cast<std::uint64_t>(span.count_ps()));
  }

  /// Counter value the timestamp register freezes at when the clock stops
  /// (the elapsed awake time in Tmin units). Events waiting longer than
  /// awake_span() are tagged saturated.
  [[nodiscard]] std::uint64_t saturation_ticks() const {
    return saturation_ticks_;
  }

  /// Division level active at `elapsed` (clamped to n_div; meaningless when
  /// asleep — check is_asleep_at first).
  [[nodiscard]] std::uint32_t level_at(Time elapsed) const;

  /// True once the schedule has exhausted all divisions and shut down.
  [[nodiscard]] bool is_asleep_at(Time elapsed) const;

  /// First sampling edge at or after `elapsed`, or Time::max() if the clock
  /// shuts down before producing another edge.
  [[nodiscard]] Time first_edge_at_or_after(Time elapsed) const;

  /// Timestamp-counter value at sampling edge `edge` (edge must be an exact
  /// edge instant as returned by first_edge_at_or_after).
  [[nodiscard]] std::uint64_t counter_at_edge(Time edge) const;

  /// Number of sampling edges in (0, elapsed] — the dynamic activity of the
  /// sampling clock domain over the interval.
  [[nodiscard]] std::uint64_t cycles_until(Time elapsed) const;

  /// The full measurement an ideal interface performs on one inter-spike
  /// interval: the counter value latched `sync_edges` sampling edges after
  /// the request arrives, `delta` after the previous sample. Returns the
  /// measured ticks and the edge (relative time) at which the sample closes,
  /// which becomes the next interval's origin. One locator call, then the
  /// synchroniser edges by index arithmetic: the per-capture hot path.
  struct Measurement {
    std::uint64_t ticks{0};
    Time sample_edge{Time::zero()};
    bool saturated{false};
    /// cycles_until(sample_edge): the sampling edges the closed interval
    /// clocked, so the capture's activity accounting needs no second
    /// level search or division.
    std::uint64_t cycles{0};
  };
  [[nodiscard]] Measurement measure(Time delta, std::uint32_t sync_edges = 0,
                                    Time wake_latency = Time::zero()) const;

  /// All edge instants in [0, until] with their division level; for VCD
  /// dumps and the Fig. 2 waveform test. Bounded by `max_edges`.
  struct Edge {
    Time at;
    std::uint32_t level;
  };
  [[nodiscard]] std::vector<Edge> enumerate_edges(
      Time until, std::size_t max_edges = 1u << 20) const;

 private:
  /// The first edge at or after an elapsed time: its level k and its index
  /// within the level (edge = S_k + idx * Tmin * 2^k). idx reaches
  /// theta_div when the edge falls on the next level's start.
  struct Place {
    std::uint32_t k;
    std::uint64_t idx;
  };
  [[nodiscard]] std::uint32_t level_of_ps(std::uint64_t ps) const;
  [[nodiscard]] Place first_edge_place(Time elapsed) const;
  /// theta_div * (2^k - 1): S_k in Tmin units.
  [[nodiscard]] std::uint64_t level_ticks(std::uint32_t k) const {
    return theta_ * ((std::uint64_t{1} << k) - 1);
  }

  ScheduleConfig cfg_;
  std::uint64_t theta_;               // theta_div, widened
  std::uint32_t top_level_;           // n_div if dividing, else 0
  bool sleeps_;                       // divides and shuts down
  Time awake_span_;                   // S_(top+1), or Time::max()
  Reciprocal tmin_recip_;             // / Tmin
  Reciprocal dwell_recip_;            // / (theta_div * Tmin)
  std::uint64_t saturation_ticks_;    // saturation_ticks(), cached
  std::uint64_t asleep_cycles_;       // cycles_until() once asleep, cached
};

}  // namespace aetr::clockgen
