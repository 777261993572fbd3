#include "core/fast_path.hpp"

#include <algorithm>

#include "aer/caviar.hpp"
#include "util/blob.hpp"

namespace aetr::core {

bool fast_path_eligible(const ScenarioConfig& scenario) {
  return !scenario.faults.any() &&
         scenario.interface.drain_timeout == Time::zero();
}

FastPathEngine::FastPathEngine(sim::Scheduler& sched,
                               AerToI2sInterface& iface,
                               const ScenarioConfig& scenario,
                               MetricsGrid& grid)
    : sched_{sched},
      channel_{iface.aer_in()},
      fe_{iface.front_end()},
      i2s_{iface.i2s_master()},
      fifo_{iface.fifo()},
      grid_{grid},
      st_{scenario.sender},
      ack_rise_delay_{scenario.interface.front_end.ack_rise_delay},
      ack_fall_delay_{scenario.interface.front_end.ack_fall_delay},
      word_time_{iface.i2s_master().word_time()},
      final_flush_{scenario.final_flush} {
  i2s_.set_external_drive(true);
}

// Run every armed I2S pop the reference scheduler would dispatch before an
// event firing at `t` that was scheduled at `emit`: a pop due at P was
// scheduled at P - word_time, and the scheduler dispatches by (time,
// schedule order), so the pop goes first when P < t, or P == t with the
// earlier (or equal — see below) schedule instant. On equal schedule
// instants the reference order depends on which of the two emitting
// callbacks at that instant ran first; for every reachable configuration
// (addr_setup < word_time) that is the pop chain, so ties favour pops.
// Each grid point before a pop is sampled ahead of it.
void FastPathEngine::pops_before(Time t, Time emit) {
  for (;;) {
    const Time due = i2s_.next_word_due();
    if (due == Time::max() || due > t) break;
    if (due == t && due - word_time_ > emit) break;
    grid_before(due);
    i2s_.step_word(due);
    if (due > t_end_) t_end_ = due;
  }
}

void FastPathEngine::sample_grid() {
  if (ack_fall_due_ <= grid_.next) {
    channel_.count_handshake();
    ack_fall_due_ = Time::max();
  }
  grid_.sample();
  // Past the last point before the ACK fall, no sample can tell an early
  // count from a timely one.
  if (ack_fall_due_ < grid_.next) {
    channel_.count_handshake();
    ack_fall_due_ = Time::max();
  }
}

Time FastPathEngine::launch_of(const aer::Event& ev, Time floor) const {
  return std::max({ev.time, earliest_next_launch_, floor});
}

void FastPathEngine::handshake(std::uint16_t address, Time launch) {
  // Sensor side: REQ rises one address-setup after the launch
  // (aer::AerSender::launch), an event scheduled at the launch. The
  // front-end's two capture halves run at REQ rise and at the sample edge
  // (scheduled at REQ rise), each after every pop and grid point that
  // precedes it, so the FIFO sees pushes and pops in exact timeline order
  // and a grid point inside the capture sees its begin but not its commit.
  const Time req_rise = launch + st_.addr_setup;
  pops_before(req_rise, launch);
  grid_before(req_rise);
  const auto cap = fe_.capture_begin(address, req_rise, req_rise);
  pops_before(cap.edge, req_rise);
  grid_before(cap.edge);
  fe_.capture_commit(cap);
  // Receiver side closes the 4-phase handshake on a fixed delay chain:
  // sample edge -> ACK rise -> REQ fall -> ACK fall (AerFrontEnd /
  // AerSender observers).
  const Time ack_rise = cap.edge + ack_rise_delay_;
  const Time req_fall = ack_rise + st_.req_release;
  const Time ack_fall = req_fall + ack_fall_delay_;
  if (grid_.next >= ack_fall) {
    channel_.count_handshake();
  } else {
    ack_fall_due_ = ack_fall;
  }
  if (ack_fall - req_rise > aer::CaviarChecker::kDefaultBound) {
    ++caviar_violations_;
  }
  earliest_next_launch_ = ack_fall + st_.min_gap;
  if (ack_fall > t_end_) t_end_ = ack_fall;
}

// Flattened: the front-end's capture halves and the I2S word step have a
// second caller (the event-driven path), so the inliner no longer folds
// them into this loop by itself, and the per-event calls cost Fig. 8 runs
// about a fifth of their speed.
[[gnu::flatten]] std::size_t FastPathEngine::launch_upto(Time t,
                                        std::span<const aer::Event> queued,
                                        Time floor) {
  std::size_t n = 0;
  for (; n < queued.size(); ++n) {
    const Time launch = launch_of(queued[n], floor);
    if (launch > t) break;
    handshake(queued[n].address, launch);
  }
  // Every handshake launched by t is done; the pops due by t precede the
  // next one's REQ rise.
  pops_before(t, Time::max());
  return n;
}

std::size_t FastPathEngine::run_to(Time t, std::span<const aer::Event> queued) {
  const std::size_t n = launch_upto(t, queued, sched_.now());
  grid_through(t);
  sched_.fast_forward_to(t);
  return n;
}

std::size_t FastPathEngine::settle(std::span<const aer::Event> queued) {
  // The floor is the clock at entry: an event still queued here launches
  // after the clock anyway (its predecessor's handshake holds it back).
  const Time floor = sched_.now();
  Time at = floor;
  std::size_t n = 0;
  for (;;) {
    if (t_end_ > at) {
      // A handshake is in flight: nothing is quiescent before its ACK fall.
      at = t_end_;
    } else if (i2s_.draining()) {
      // Idle wire, busy drain: the next dispatch is the next word pop or a
      // queued launch, whichever comes first.
      at = i2s_.next_word_due();
      if (n < queued.size()) at = std::min(at, launch_of(queued[n], floor));
    } else {
      break;
    }
    n += launch_upto(at, queued.subspan(n), floor);
  }
  grid_through(at);
  sched_.fast_forward_to(at);
  return n;
}

void FastPathEngine::run_out(std::span<const aer::Event> queued) {
  const Time floor = sched_.now();
  launch_upto(Time::max(), queued, floor);
  // The reference run's clock ends on its last dispatch, which is never
  // earlier than where the caller left it.
  t_end_ = std::max(t_end_, floor);
  grid_through(t_end_);
  // Residual flush, as the reference performs once the run has drained.
  if (final_flush_ && !fifo_.empty()) {
    i2s_.request_drain(t_end_);
    pops_before(Time::max(), Time::max());
    grid_through(t_end_);
  }
  sched_.fast_forward_to(t_end_);
}

void FastPathEngine::save_state(BlobWriter& w) const {
  w.time(earliest_next_launch_);
  w.time(t_end_);
  w.u64(caviar_violations_);
}

void FastPathEngine::restore_state(BlobReader& r) {
  earliest_next_launch_ = r.time();
  t_end_ = r.time();
  caviar_violations_ = r.u64();
}

}  // namespace aetr::core
