#include "rtl/clock_unit.hpp"

#include <utility>

namespace aetr::rtl {

RtlClockUnit::RtlClockUnit(sim::Scheduler& sched, ClockUnitConfig config)
    : sched_{sched},
      cfg_{config},
      osc_{sched, config.ring},
      divider_{osc_.line(), config.base_divider_stages} {
  divider_.line().on_rising([this](Time t, Time) { base_edge(t); });
}

void RtlClockUnit::start() {
  reset_fsm();
  osc_.start();
}

void RtlClockUnit::reset_fsm() {
  level_ = 0;
  prescale_ = 1;
  prescale_count_ = 0;
  ticks_in_level_ = 0;
  counter_ = 0;
  saturated_ = false;
}

void RtlClockUnit::set_request(bool level) {
  req_level_ = level;
  if (level && !osc_.running()) {
    // Fig. 5: the request releases SLEEP asynchronously through the NOR
    // gate; the ring restarts (wake latency) and, per the pseudocode, the
    // schedule resumes from the fastest period.
    prescale_ = 1;
    prescale_count_ = 0;
    level_ = 0;
    ticks_in_level_ = 0;
    divider_.reset();
    osc_.wake();
  }
}

void RtlClockUnit::base_edge(Time t) {
  ++base_edges_;
  if (++prescale_count_ < prescale_) return;
  prescale_count_ = 0;
  sampling_tick(t);
}

void RtlClockUnit::sampling_tick(Time t) {
  // 1. Timestamp counter: increment by the spacing just elapsed (the
  //    "configurable increment step" tracking the division level). Frozen
  //    once the schedule saturated — the register kept its final value
  //    while the clock was off.
  if (!saturated_) counter_ += prescale_;

  // 2. Request synchroniser: the request is consumed sync_stages edges
  //    after the first edge that observed it (same convention as
  //    ClockGenerator::begin_capture).
  sync_shift_ = (sync_shift_ << 1) | (req_level_ ? 1u : 0u);
  if ((sync_shift_ >> cfg_.sync_stages) & 1u) {
    const std::uint64_t latched = counter_;
    // A counter at its ceiling is the saturation marker even when the
    // request raced the shutdown instant and kept the clock alive.
    const std::uint64_t sat_ticks =
        static_cast<std::uint64_t>(cfg_.theta_div) *
        ((std::uint64_t{1} << (cfg_.n_div + 1)) - 1);
    const bool was_saturated =
        saturated_ || (cfg_.divide_enabled && cfg_.shutdown_enabled &&
                       latched >= sat_ticks);
    ++samples_;
    reset_fsm();          // sample(); acknowledge(); back to Tmin
    sync_shift_ = 0;      // handshake closes before the next edge
    sampling_line_.tick(t, Time::zero());
    if (sample_fn_) sample_fn_(t, latched, was_saturated);
    return;
  }

  // 3. Saturated schedule: the clock only stays alive because a request is
  //    holding the NOR; once it clears (sample handled above) the ring can
  //    finally pause.
  if (saturated_) {
    if (!req_level_) {
      osc_.sleep();
      return;
    }
    sampling_line_.tick(t, Time::zero());
    return;
  }

  // 4. Division bookkeeping (Fig. 1).
  if (cfg_.divide_enabled && !saturated_) {
    if (++ticks_in_level_ >= cfg_.theta_div) {
      if (level_ >= cfg_.n_div) {
        if (cfg_.shutdown_enabled) {
          saturated_ = true;  // the counter freezes at its final value
          if (!req_level_) {
            // shutdown_clk(): this would-be edge never happens.
            osc_.sleep();
            return;
          }
          // A request is mid-synchroniser: REQ holds the Fig. 5 NOR, so
          // SLEEP cannot take effect — keep ticking at the slowest period
          // until the sample closes.
        }
        ticks_in_level_ = 0;  // dwell at the slowest period
      } else {
        ++level_;
        prescale_ <<= 1;
        ticks_in_level_ = 0;
      }
    }
  }
  sampling_line_.tick(t, Time::zero());
}

}  // namespace aetr::rtl
