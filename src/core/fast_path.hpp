// The analytic run engine: the idle-skip fast path for fault-free runs.
//
// Between spikes the whole interface is analytically predictable — the
// clock generator already models its divided-clock state in closed form,
// the AER handshake is a fixed delay chain, and the I2S drain pops words on
// a fixed grid. The reference DES path nevertheless pays ~6 scheduler
// events per spike plus one per drained word. This engine replays the exact
// same component code (the real ClockGenerator / AerFrontEnd / FIFO /
// I2sMaster objects, via the narrow hooks capture_now / fast_capture_* /
// step_word) on a merged virtual timeline and never schedules anything: it
// only moves the scheduler's clock. Every counter, record, RNG draw and
// accounting value is bit-identical to the event-driven run.
//
// A core::Session owns one engine whenever fast_path_eligible() holds and
// drives it in place of the scheduler — batch run_scenario() and streaming
// alike (only a test's core::DesOracleScope keeps it out). It is
// resumable: it carries the sender's next-launch floor, the last activity
// instant and the wire counters across calls, and reproduces the DES
// streaming semantics exactly, including a snapshot's settle point
// (docs/SIMULATOR.md §Fast path).
//
// The only cross-component ordering that matters is FIFO pushes (at sample
// edges) versus FIFO pops (at I2S word deadlines); the engine merges the
// two streams by (fire time, schedule time), which reproduces the
// scheduler's (time, seq) dispatch order.
#pragma once

#include <cstdint>
#include <span>

#include "aer/event.hpp"
#include "core/interface.hpp"
#include "core/scenario.hpp"
#include "sim/scheduler.hpp"

namespace aetr {
class BlobWriter;
class BlobReader;
}  // namespace aetr

namespace aetr::core {

/// True when `scenario` can take the fast path with a bit-identical result:
/// no telemetry session is active (tracing observes the DES timeline
/// itself), the fault plan is empty (zero-probability sites count as empty
/// — fault::FaultPlan::any() is probability-based), and the FIFO
/// drain-timeout watchdog is disabled (it schedules ad-hoc events).
[[nodiscard]] bool fast_path_eligible(const ScenarioConfig& scenario,
                                      bool telemetry_active);

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
  FastPathEngine(sim::Scheduler& sched, AerToI2sInterface& iface,
                 const ScenarioConfig& scenario);

  /// The DES `advance_to(t)`: launch every queued event whose handshake
  /// starts at or before `t`, run every I2S word pop due at or before `t`,
  /// and move the clock to `t`. An event launches at max(its time, the
  /// post-handshake gap, the clock at the call) — the clock term is the
  /// sender's floor for an event submitted late (aer::AerSender).
  std::size_t run_to(Time t, std::span<const aer::Event> queued);

  /// The DES snapshot settle: move the clock to the first instant, at or
  /// after now(), at which no handshake is between its launch and its ACK
  /// fall and the I2S master is not draining. A queued launch that comes
  /// due before that instant runs, as the settle loop dispatches it.
  std::size_t settle(std::span<const aer::Event> queued);

  /// Run every queued event and the drain to completion, then the final
  /// flush (when the scenario asks for one), and land the clock on the last
  /// activity instant — or stay put when that lies in the past.
  void run_out(std::span<const aer::Event> queued);

  /// What the AER wire agents would have observed: the two RunResult
  /// fields the engine computes arithmetically instead of via observers.
  [[nodiscard]] std::uint64_t handshakes() const { return handshakes_; }
  [[nodiscard]] std::uint64_t caviar_violations() const {
    return caviar_violations_;
  }

  /// The engine's own snapshot section (valid at a settle point, where no
  /// handshake is in flight and no drain runs).
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  std::size_t launch_upto(Time t, std::span<const aer::Event> queued,
                          Time floor);
  void handshake(std::uint16_t address, Time launch);
  void pops_before(Time t, Time emit);
  [[nodiscard]] Time launch_of(const aer::Event& ev, Time floor) const;

  sim::Scheduler& sched_;
  frontend::AerFrontEnd& fe_;
  i2s::I2sMaster& i2s_;
  buffer::AetrFifo& fifo_;
  aer::SenderTiming st_;
  Time ack_rise_delay_;
  Time ack_fall_delay_;
  Time word_time_;
  bool final_flush_;

  Time earliest_next_launch_{Time::zero()};
  /// Latest ACK fall or word pop run so far. After run_to(t) it exceeds t
  /// exactly when a handshake launched by t is still in flight at t.
  Time t_end_{Time::zero()};
  std::uint64_t handshakes_{0};
  std::uint64_t caviar_violations_{0};
};

}  // namespace aetr::core
