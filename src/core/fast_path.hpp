// The analytic run engine: the idle-skip fast path for fault-free runs.
//
// Between spikes the whole interface is analytically predictable — the
// clock generator already models its divided-clock state in closed form,
// the AER handshake is a fixed delay chain, the I2S drain pops words on
// a fixed grid, and a drain deadline falls a fixed delay after the word
// that armed it. The reference DES path nevertheless pays ~6 scheduler
// events per spike plus one per drained word and per deadline. This
// engine drives the exact same component code (the real ClockGenerator /
// AerFrontEnd / FIFO / I2sMaster objects, through the calls the DES makes
// too: the front-end's capture_begin / capture_commit, the I2S master's
// step_word and the interface's expire_drain_deadline) on a merged
// virtual timeline and never schedules anything: it only moves the
// scheduler's clock. Every counter, record, RNG draw, accounting value,
// trace event and metrics row is bit-identical to the event-driven run.
//
// A core::Session owns one engine whenever fast_path_eligible() holds and
// drives it in place of the scheduler — batch run_scenario() and streaming
// alike, traced and sampled runs included (only a test's
// core::DesOracleScope keeps it out). It is resumable: it carries the
// sender's next-launch floor and the last activity instant across calls,
// and reproduces the DES streaming semantics exactly, including a
// snapshot's settle point (docs/SIMULATOR.md §Fast path).
//
// The cross-component orderings that matter are FIFO pushes (at sample
// edges) versus FIFO pops (at I2S word deadlines) and drain deadlines,
// and all of them versus the session's metrics grid points; the engine
// merges the streams by (fire time, schedule time), which reproduces the
// scheduler's (time, seq) dispatch order, and samples each grid point
// after everything at or before it.
#pragma once

#include <cstdint>
#include <span>

#include "aer/event.hpp"
#include "core/interface.hpp"
#include "core/scenario.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace aetr {
class BlobWriter;
class BlobReader;
}  // namespace aetr

namespace aetr::core {

/// True when `scenario` can take the fast path with a bit-identical result:
/// the fault plan is empty (zero-probability sites count as empty —
/// fault::FaultPlan::any() is probability-based).
[[nodiscard]] bool fast_path_eligible(const ScenarioConfig& scenario);

/// The metrics sampling grid a core::Session walks on either engine: a
/// point at every multiple of the pitch from the first advance, each
/// sampled once the run has done everything at or before it, and none past
/// the last event fed. `next` is the point due, Time::max() while none is
/// (metrics off, the timeline not started, or the grid past the last
/// event), so an unobserved run tests it against one constant.
struct MetricsGrid {
  telemetry::MetricsRegistry* metrics{nullptr};
  Time pitch{Time::zero()};
  Time point{Time::max()};   ///< the next point on the grid
  Time until{Time::ps(-1)};  ///< the last event fed
  Time next{Time::max()};

  /// The first point, at the timeline's start.
  void start() {
    if (metrics != nullptr) point = Time::zero();
    due();
  }
  void sample() {
    metrics->snapshot(next);
    point += pitch;
    due();
  }
  /// Events fed up to `last` with the clock at `now`. A grid that stopped
  /// at the previous last event resumes at the first point past the clock:
  /// the points it skipped would read activity after them.
  void extend(Time last, Time now) {
    if (point > until && point <= now) point = after(now);
    until = last;
    due();
  }
  /// A restored timeline: every point up to the clock `now` was sampled.
  void resume(Time last, Time now) {
    if (metrics != nullptr) point = after(now);
    until = last;
    due();
  }

 private:
  [[nodiscard]] Time after(Time t) const { return t - t % pitch + pitch; }
  void due() { next = point <= until ? point : Time::max(); }
};

/// Resumable analytic interpreter over an already-wired interface. The
/// caller keeps the submitted-but-not-launched events (in submission
/// order) and passes them as `queued` to each call; every call returns how
/// many of them launched, which the caller then drops. Each handshake is
/// run whole, from launch through ACK fall, once its launch instant is
/// reached — nothing can interleave with a handshake in flight, so the
/// later part only decides when the next one may launch.
class FastPathEngine {
 public:
  /// Puts the I2S master into external drive for the engine's lifetime.
  /// The engine samples `grid` (owned by the session) as it passes it.
  FastPathEngine(sim::Scheduler& sched, AerToI2sInterface& iface,
                 const ScenarioConfig& scenario, MetricsGrid& grid);

  /// The DES `advance_to(t)`: launch every queued event whose handshake
  /// starts at or before `t`, run every I2S word pop and drain deadline
  /// and sample every grid point due at or before `t`, and move the clock
  /// to `t`. An event
  /// launches at max(its time, the post-handshake gap, the clock at the
  /// call) — the clock term is the sender's floor for an event submitted
  /// late (aer::AerSender).
  std::size_t run_to(Time t, std::span<const aer::Event> queued);

  /// The DES snapshot settle: move the clock to the first instant, at or
  /// after now(), at which no handshake is between its launch and its ACK
  /// fall and the I2S master is not draining. A queued launch that comes
  /// due before that instant runs, as the settle loop dispatches it.
  std::size_t settle(std::span<const aer::Event> queued);

  /// Run every queued event, the drain and every drain deadline to
  /// completion, then the final flush (when the scenario asks for one), and
  /// land the clock on the last activity instant — or stay put when that
  /// lies in the past.
  void run_out(std::span<const aer::Event> queued);

  /// What the CAVIAR checker would have observed on the wire, which the
  /// engine computes arithmetically instead of via observers.
  [[nodiscard]] std::uint64_t caviar_violations() const {
    return caviar_violations_;
  }

  /// The engine's own snapshot section (valid at a settle point, where no
  /// handshake is in flight and no drain runs).
  void save_state(BlobWriter& w) const;
  /// Refuses (std::runtime_error) a restored time outside [0, latest].
  void restore_state(BlobReader& r, Time latest);

 private:
  std::size_t launch_upto(Time t, std::span<const aer::Event> queued,
                          Time floor);
  /// launch_upto() with (kDeadlines) or without drain deadlines to merge;
  /// launch_plain() is the second, flattened.
  template <bool kDeadlines>
  std::size_t launch_through(Time t, std::span<const aer::Event> queued,
                             Time floor);
  std::size_t launch_plain(Time t, std::span<const aer::Event> queued,
                           Time floor);
  template <bool kDeadlines>
  void handshake(std::uint16_t address, Time launch);
  template <bool kDeadlines>
  void pops_before(Time t, Time emit);
  void expire_deadline(Time deadline);
  /// Sample the grid points before `t`, or at or before it.
  void grid_before(Time t) {
    while (grid_.next < t) sample_grid();
  }
  void grid_through(Time t) {
    while (grid_.next <= t) sample_grid();
  }
  // Off the hot path: launch_upto() is flattened, and an unobserved run
  // never samples.
  [[gnu::noinline, gnu::cold]] void sample_grid();
  [[nodiscard]] Time launch_of(const aer::Event& ev, Time floor) const;

  sim::Scheduler& sched_;
  AerToI2sInterface& iface_;
  aer::AerChannel& channel_;
  frontend::AerFrontEnd& fe_;
  i2s::I2sMaster& i2s_;
  buffer::AetrFifo& fifo_;
  MetricsGrid& grid_;
  aer::SenderTiming st_;
  Time ack_rise_delay_;
  Time ack_fall_delay_;
  Time word_time_;
  bool deadlines_;  ///< a drain timeout is set
  /// A drain deadline due with a word pop runs first (see pops_before()).
  bool deadline_wins_tie_;
  bool final_flush_;

  Time earliest_next_launch_{Time::zero()};
  /// Latest ACK fall, word pop or drain deadline run so far. After run_to(t) it exceeds t
  /// exactly when a handshake launched by t is still in flight at t.
  Time t_end_{Time::zero()};
  /// An ACK fall not yet counted on the channel (Time::max(): none). It is
  /// counted at once unless a grid point falls before it, and otherwise
  /// when the grid passes it, so every grid point reads the handshake
  /// count of its instant; one is pending only while grid_.next lies
  /// before it, and settle() and run_out() sample past it.
  Time ack_fall_due_{Time::max()};
  std::uint64_t caviar_violations_{0};
};

}  // namespace aetr::core
