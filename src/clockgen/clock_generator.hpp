// The Clock Generator block (paper §4.1): pausable ring oscillator +
// divider cascade + the Fig. 1 sampling FSM, exposed to the AER front-end
// as a "capture" service.
//
// Implementation note: between spikes the divided-clock state is a pure
// function of elapsed time (SamplingSchedule), so this block schedules *no*
// periodic DES events at all — it materialises edges only while a request
// is in flight (2-3 per spike) and accounts awake time / cycle counts in
// closed form at each schedule reset. This makes simulated cost proportional
// to event rate, mirroring the energy proportionality of the hardware.
#pragma once

#include <cstdint>

#include "clockgen/schedule.hpp"
#include "fault/injector.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/time.hpp"

namespace aetr {
class BlobWriter;
class BlobReader;
}  // namespace aetr

namespace aetr::clockgen {

/// Clock generator parameters. Defaults follow the paper: 120 MHz ring,
/// /4 to the 30 MHz reference, /2 to the 15 MHz base sampling clock.
struct ClockGeneratorConfig {
  Frequency ring_frequency = Frequency::mhz(120.0);
  unsigned ref_divider_stages = 2;       ///< 120 MHz -> 30 MHz reference
  unsigned sampling_divider_stages = 1;  ///< 30 MHz -> 15 MHz base sampling
  std::uint32_t theta_div = 64;
  std::uint32_t n_div = 8;
  bool divide_enabled = true;
  bool shutdown_enabled = true;
  Time wake_latency = Time::ns(100);
};

/// Aggregated clock-domain activity, the input to the power model.
struct ClockActivity {
  Time awake{Time::zero()};           ///< ring-oscillator running time
  std::uint64_t sampling_cycles{0};   ///< edges of the divided global clock
  std::uint64_t wakeups{0};           ///< restarts from full shutdown
  std::uint64_t captures{0};          ///< events timed (schedule resets)

  /// Ring / reference cycle counts implied by the awake time.
  [[nodiscard]] std::uint64_t ring_cycles(Frequency ring) const {
    return static_cast<std::uint64_t>(awake.to_sec() * ring.to_hz());
  }
};

/// DES embodiment of the clock generator + sampling FSM.
class ClockGenerator {
 public:
  ClockGenerator(sim::Scheduler& sched, ClockGeneratorConfig config = {});

  /// Base (undivided) sampling period Tmin.
  [[nodiscard]] Time tmin() const { return schedule_.config().tmin; }
  [[nodiscard]] const ClockGeneratorConfig& config() const { return cfg_; }
  [[nodiscard]] const SamplingSchedule& schedule() const { return schedule_; }

  /// Runtime reconfiguration (SPI-accessible registers, §4.1). Takes effect
  /// from the current schedule origin onwards.
  void set_theta_div(std::uint32_t theta_div);
  void set_n_div(std::uint32_t n_div);
  void set_divide_enabled(bool enabled);
  void set_shutdown_enabled(bool enabled);

  /// The two halves of a capture, shared by both run engines. The measure
  /// half, at the instant `req` REQ rises: the generator wakes the ring if
  /// paused and lets the request cross `sync_edges` sampling edges (the 2-FF
  /// synchronizer); returns the absolute sample edge where the FSM samples
  /// the event. `req` may lie ahead of the scheduler's clock on the
  /// analytic engine, which owns the timeline. Only one capture may be in
  /// flight (guaranteed by the AER handshake; std::logic_error otherwise).
  Time begin_capture(std::uint32_t sync_edges, Time req);
  /// The settle half, at that sample edge: activity accounting, retroactive
  /// tracing, the schedule reset to Tmin and the period-jitter lottery. An
  /// SPI retune in between restarts the schedule at the retune, and the
  /// books close from there under the new schedule; the edge stays put.
  struct CaptureResult {
    Time edge;            ///< absolute sampling-edge time
    std::uint64_t ticks;  ///< latched timestamp-counter value
    bool saturated;       ///< counter hit the saturation marker
  };
  CaptureResult complete_capture();

  /// True when the sampling clock is currently shut down.
  [[nodiscard]] bool asleep() const;

  /// Division level currently active (0 = Tmin).
  [[nodiscard]] std::uint32_t level() const;

  /// Current sampling period of the global clock.
  [[nodiscard]] Time current_period() const;

  /// Activity totals settled up to the current simulation time, or up to
  /// `now` (a metrics grid point, which the analytic engine may sample
  /// ahead of the scheduler's clock).
  [[nodiscard]] ClockActivity activity() const {
    return activity_at(sched_.now());
  }
  [[nodiscard]] ClockActivity activity_at(Time now) const;

  /// Period-jitter / wake-latency-variation lotteries. Null is inert.
  void attach_faults(fault::FaultInjector* faults) { faults_ = faults; }

  /// Serialize runtime config + settled accumulators. Requires no capture
  /// in flight (the schedule between captures is a pure function of config
  /// and origin, so nothing else needs saving).
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  void rebuild_schedule();
  /// Wake latency for this capture, including the restart-jitter lottery.
  [[nodiscard]] Time wake_latency_for(bool was_asleep);
  [[nodiscard]] Time elapsed() const { return sched_.now() - origin_; }
  /// Materialise the FSM trace of a just-closed inter-capture interval:
  /// between captures the division level is a pure function of elapsed
  /// time, so the transitions (and the pause/wake pair, if the clock shut
  /// down) are emitted retroactively when the sample edge closes the books.
  void trace_closed_interval(Time old_origin, Time end_rel, bool was_asleep,
                             Time request_rel);

  sim::Scheduler& sched_;
  ClockGeneratorConfig cfg_;
  SamplingSchedule schedule_;
  fault::FaultInjector* faults_{nullptr};
  Time origin_{Time::zero()};  ///< absolute time of the last schedule reset
  bool capture_pending_{false};
  // The capture in flight (one at a time — capture_pending_), measured at
  // the request and settled at its sample edge.
  struct PendingCapture {
    SamplingSchedule::Measurement m;
    Time origin{Time::zero()};  ///< origin_ at the request, or a retune
    Time delta{Time::zero()};
    bool was_asleep{false};
    Time wake{Time::zero()};
  };
  PendingCapture pending_;

  // Settled accumulators (exclude the open interval since origin_).
  Time awake_accum_{Time::zero()};
  std::uint64_t sampling_cycles_accum_{0};
  std::uint64_t wakeups_{0};
  std::uint64_t captures_{0};
  // Last: keeps the capture-path members on their seed cache lines.
  telemetry::BlockTelemetry tel_;
};

}  // namespace aetr::clockgen
