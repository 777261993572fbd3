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
#pragma once

#include <cstdint>
#include <vector>

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
  /// which becomes the next interval's origin.
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
  ScheduleConfig cfg_;
  std::uint32_t top_level_;           // n_div if dividing, else 0
  std::vector<Time> level_starts_;    // S_0..S_(top+1)
  std::uint64_t saturation_ticks_;    // saturation_ticks(), cached
  std::uint64_t asleep_cycles_;       // cycles_until() once asleep, cached
};

}  // namespace aetr::clockgen
