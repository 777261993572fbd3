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
#include "util/inplace_function.hpp"
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
  /// Capture completion callback: absolute sampling-edge time, the latched
  /// timestamp-counter value (Tmin ticks since previous event), and whether
  /// the value is the saturation marker. Invoked once per spike on the
  /// event-driven path, so it stores its capture inline (no allocation).
  using CaptureFn =
      util::InplaceFunction<void(Time edge, std::uint64_t ticks, bool saturated)>;

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

  /// Called by the AER front-end at the instant REQ rises. The generator
  /// wakes the ring if paused, lets the request cross `sync_edges` sampling
  /// edges (the 2-FF synchronizer), then invokes `done` at the edge where
  /// the FSM samples the event; the schedule resets to Tmin at that edge.
  /// Only one capture may be in flight (guaranteed by the AER handshake).
  void capture_request(std::uint32_t sync_edges, CaptureFn done);

  /// Analytic capture for the fast path: identical measurement, fault
  /// lotteries, accounting and telemetry as capture_request followed by its
  /// scheduled sample-edge callback, but computed immediately from the
  /// request's absolute time instead of materialising the edge as a DES
  /// event. `req_abs` is the instant REQ rises; it may lie ahead of
  /// sched_.now() — the caller owns the timeline and guarantees nothing
  /// else touches this block in between.
  struct CaptureResult {
    Time edge;            ///< absolute sampling-edge time
    std::uint64_t ticks;  ///< latched timestamp-counter value
    bool saturated;       ///< counter hit the saturation marker
  };
  CaptureResult capture_now(std::uint32_t sync_edges, Time req_abs);

  /// True when the sampling clock is currently shut down.
  [[nodiscard]] bool asleep() const;

  /// Division level currently active (0 = Tmin).
  [[nodiscard]] std::uint32_t level() const;

  /// Current sampling period of the global clock.
  [[nodiscard]] Time current_period() const;

  /// Activity totals settled up to the current simulation time.
  [[nodiscard]] ClockActivity activity() const;

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
  /// Sample-edge event of the capture in flight.
  void complete_capture();
  /// Close the books on the interval ending at the sample edge: activity
  /// accounting, capture count, retroactive tracing, origin reset and the
  /// period-jitter lottery. Returns the (possibly jittered) latched ticks.
  std::uint64_t settle_capture(const SamplingSchedule::Measurement& m,
                               Time delta, bool was_asleep, Time wake,
                               Time sample_abs);
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
  // The capture in flight (one at a time — capture_pending_): measured at
  // the request, completed by a sample-edge event that captures only
  // `this`, so the per-spike closure stays inside the scheduler's inline
  // buffer.
  struct PendingCapture {
    SamplingSchedule::Measurement m;
    Time delta{Time::zero()};
    bool was_asleep{false};
    Time wake{Time::zero()};
    CaptureFn done;
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
