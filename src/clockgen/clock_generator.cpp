#include "clockgen/clock_generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/blob.hpp"

namespace aetr::clockgen {
namespace {

ScheduleConfig to_schedule_config(const ClockGeneratorConfig& cfg) {
  ScheduleConfig sc;
  const std::uint64_t stages = std::uint64_t{cfg.ref_divider_stages} +
                               cfg.sampling_divider_stages;
  const Time ring_period = cfg.ring_frequency.period();
  if (stages > 62 ||
      ring_period.count_ps() > (Time::max().count_ps() >> stages)) {
    throw std::invalid_argument(
        "ClockGenerator: ring period * 2^(divider stages) exceeds the time "
        "range");
  }
  sc.tmin = ring_period * (Time::Rep{1} << stages);
  sc.theta_div = cfg.theta_div;
  sc.n_div = cfg.n_div;
  sc.divide_enabled = cfg.divide_enabled;
  sc.shutdown_enabled = cfg.shutdown_enabled;
  return sc;
}

}  // namespace

ClockGenerator::ClockGenerator(sim::Scheduler& sched,
                               ClockGeneratorConfig config)
    : sched_{sched},
      cfg_{config},
      schedule_{to_schedule_config(config)},
      origin_{sched.now()},
      tel_{sched.telemetry(), "clockgen"} {
  if (auto* m = tel_.metrics()) {
    m->probe("clockgen.captures", [this](Time) {
      return static_cast<double>(captures_);
    });
    m->probe("clockgen.wakeups", [this](Time) {
      return static_cast<double>(wakeups_);
    });
    m->probe("clockgen.level", [this](Time at) {
      const Time e = at - origin_;
      return schedule_.is_asleep_at(e)
                 ? -1.0
                 : static_cast<double>(schedule_.level_at(e));
    });
    m->probe("clockgen.awake_s",
             [this](Time at) { return activity_at(at).awake.to_sec(); });
    m->probe("clockgen.sampling_cycles", [this](Time at) {
      return static_cast<double>(activity_at(at).sampling_cycles);
    });
  }
  tel_.counter("level", origin_, 0.0);
}

void ClockGenerator::rebuild_schedule() {
  // Settle the open interval under the old schedule, then restart the
  // schedule from "now" with the new parameters (the hardware loads the SPI
  // registers into the FSM, which re-enters its reset state).
  const Time e = elapsed();
  awake_accum_ += std::min(e, schedule_.awake_span());
  sampling_cycles_accum_ += schedule_.cycles_until(e);
  origin_ = sched_.now();
  schedule_ = SamplingSchedule{to_schedule_config(cfg_)};
  tel_.instant("reconfig", origin_,
               {{"theta_div", static_cast<double>(cfg_.theta_div)},
                {"n_div", static_cast<double>(cfg_.n_div)}});
  tel_.counter("level", origin_, 0.0);
}

void ClockGenerator::set_theta_div(std::uint32_t theta_div) {
  cfg_.theta_div = theta_div;
  rebuild_schedule();
}

void ClockGenerator::set_n_div(std::uint32_t n_div) {
  cfg_.n_div = n_div;
  rebuild_schedule();
}

void ClockGenerator::set_divide_enabled(bool enabled) {
  cfg_.divide_enabled = enabled;
  rebuild_schedule();
}

void ClockGenerator::set_shutdown_enabled(bool enabled) {
  cfg_.shutdown_enabled = enabled;
  rebuild_schedule();
}

Time ClockGenerator::wake_latency_for(bool was_asleep) {
  // Restart-latency variation: a jittered wakeup stretches the wake
  // latency of this capture only (the draw happens before measure() so
  // the sample edge itself shifts, exactly like real restart slew).
  Time wake = cfg_.wake_latency;
  if (faults_ != nullptr && was_asleep) {
    const double sig = faults_->plan().clock.wake_jitter_rel;
    if (sig > 0.0) {
      const double stretch =
          std::abs(faults_->rng(fault::Site::kClock).normal(0.0, sig));
      wake = Time::ns(wake.to_ns() * (1.0 + stretch));
      ++faults_->counters().wake_jitter_events;
    }
  }
  return wake;
}

Time ClockGenerator::begin_capture(std::uint32_t sync_edges, Time req) {
  if (capture_pending_) {
    throw std::logic_error(
        "ClockGenerator: capture while another request is in flight "
        "(AER 4-phase handshake should serialise requests)");
  }
  capture_pending_ = true;
  PendingCapture& p = pending_;
  p.origin = origin_;
  p.delta = req - origin_;
  p.was_asleep = schedule_.is_asleep_at(p.delta);
  p.wake = wake_latency_for(p.was_asleep);
  p.m = schedule_.measure(p.delta, sync_edges, p.wake);
  return origin_ + p.m.sample_edge;
}

ClockGenerator::CaptureResult ClockGenerator::complete_capture() {
  const PendingCapture& p = pending_;
  const SamplingSchedule::Measurement& m = p.m;
  // An SPI retune mid-capture moves origin_; the edge stays where the
  // measurement put it.
  const Time sample_abs = p.origin + m.sample_edge;
  // Close the books on the interval [origin, sample edge]. m.cycles is
  // cycles_until(sample_edge): for a sleeper, the full schedule's edges.
  if (p.was_asleep) {
    // Ring ran for the full schedule, paused, and restarted at the
    // request; it has been running again since the request instant.
    awake_accum_ += schedule_.awake_span() + (m.sample_edge - p.delta);
    sampling_cycles_accum_ +=
        m.cycles + schedule_.tmin_ticks(m.sample_edge - p.delta - p.wake) + 1;
    ++wakeups_;
  } else {
    awake_accum_ += std::min(m.sample_edge, schedule_.awake_span());
    sampling_cycles_accum_ += m.cycles;
  }
  ++captures_;
  if (tel_.tracing()) {
    trace_closed_interval(p.origin, m.sample_edge, p.was_asleep, p.delta);
  }
  origin_ = sample_abs;  // the sample edge is the new counter origin
  capture_pending_ = false;
  // Period jitter accumulates in the timestamp counter: the latched
  // tick count gains a zero-mean error with sigma growing as
  // sqrt(ticks) (independent per-cycle jitter).
  std::uint64_t ticks = m.ticks;
  if (faults_ != nullptr && !m.saturated) {
    const double sig = faults_->plan().clock.period_jitter_rel;
    if (sig > 0.0) {
      const double err =
          faults_->rng(fault::Site::kClock)
              .normal(0.0, sig * std::sqrt(static_cast<double>(m.ticks) + 1.0));
      const auto jit = static_cast<std::int64_t>(std::llround(err));
      if (jit != 0) ++faults_->counters().tick_jitter_events;
      ticks = static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, static_cast<std::int64_t>(m.ticks) + jit));
    }
  }
  return {sample_abs, ticks, m.saturated};
}

void ClockGenerator::capture_request(std::uint32_t sync_edges, CaptureFn done) {
  const Time edge = begin_capture(sync_edges, sched_.now());
  pending_.done = std::move(done);
  sched_.schedule_at(edge, [this] {
    const CaptureResult r = complete_capture();
    // Moved out first: the callback may start the next capture.
    CaptureFn fn = std::move(pending_.done);
    fn(r.edge, r.ticks, r.saturated);
  });
}

void ClockGenerator::trace_closed_interval(Time old_origin, Time end_rel,
                                           bool was_asleep, Time request_rel) {
  const ScheduleConfig& sc = schedule_.config();
  if (sc.divide_enabled) {
    for (std::uint32_t k = 1; k <= sc.n_div; ++k) {
      const Time s = schedule_.level_start(k);
      if (s > end_rel) break;
      tel_.counter("level", old_origin + s, static_cast<double>(k));
    }
  }
  if (was_asleep) {
    // The schedule ran dry, the ring paused, and the request restarted it.
    const Time span = schedule_.awake_span();
    if (span < end_rel) tel_.instant("pause", old_origin + span);
    tel_.instant("wake", old_origin + request_rel,
                 {{"latency_ns", cfg_.wake_latency.to_ns()}});
  }
  // The sample edge resets the schedule: back to full speed.
  tel_.counter("level", old_origin + end_rel, 0.0);
}

bool ClockGenerator::asleep() const {
  return schedule_.is_asleep_at(elapsed());
}

std::uint32_t ClockGenerator::level() const {
  return schedule_.level_at(elapsed());
}

Time ClockGenerator::current_period() const {
  return schedule_.period_of_level(level());
}

ClockActivity ClockGenerator::activity_at(Time now) const {
  ClockActivity a;
  const Time e = now - origin_;
  a.awake = awake_accum_ + std::min(e, schedule_.awake_span());
  a.sampling_cycles = sampling_cycles_accum_ + schedule_.cycles_until(e);
  a.wakeups = wakeups_;
  a.captures = captures_;
  return a;
}

void ClockGenerator::save_state(BlobWriter& w) const {
  if (capture_pending_) {
    throw std::logic_error("ClockGenerator: save_state with capture pending");
  }
  w.u32(cfg_.theta_div);
  w.u32(cfg_.n_div);
  w.b(cfg_.divide_enabled);
  w.b(cfg_.shutdown_enabled);
  w.time(origin_);
  w.time(awake_accum_);
  w.u64(sampling_cycles_accum_);
  w.u64(wakeups_);
  w.u64(captures_);
}

void ClockGenerator::restore_state(BlobReader& r) {
  cfg_.theta_div = r.u32();
  cfg_.n_div = r.u32();
  cfg_.divide_enabled = r.b();
  cfg_.shutdown_enabled = r.b();
  // Rebuild the schedule directly from the restored config — unlike
  // rebuild_schedule(), no settling or telemetry: the saved accumulators
  // already contain everything up to the saved origin.
  schedule_ = SamplingSchedule{to_schedule_config(cfg_)};
  origin_ = r.time();
  awake_accum_ = r.time();
  sampling_cycles_accum_ = r.u64();
  wakeups_ = r.u64();
  captures_ = r.u64();
  capture_pending_ = false;
}

}  // namespace aetr::clockgen
