// AER front-end (paper Fig. 4): the only always-listening block.
//
// A request edge is synchronised through a 2-FF chain (first FF on the
// always-on clock branch, second on the gateable one), the stable ADDR bus
// is latched by a 10-bit register, and the timestamp counter value — whose
// increment step tracks the current division level so it always counts in
// Tmin units — is latched alongside to form the AETR word. The front-end
// then acknowledges, closing the 4-phase handshake.
//
// Optional metastability injection models the residual risk of the
// synchroniser: with a small per-event probability the request needs one
// extra sampling edge to resolve.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "aer/channel.hpp"
#include "aer/event.hpp"
#include "clockgen/clock_generator.hpp"
#include "fault/injector.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/inplace_function.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace aetr::frontend {

/// Front-end timing/behaviour parameters.
struct FrontEndConfig {
  std::uint32_t sync_stages = 2;        ///< FFs in the request synchroniser
  Time ack_rise_delay = Time::ns(3);    ///< sample edge -> ACK rise
  Time ack_fall_delay = Time::ns(3);    ///< REQ fall -> ACK fall
  double metastability_prob = 0.0;      ///< P(one extra resolution edge)
  std::uint64_t seed = 0x5EED;
  bool keep_records = true;             ///< retain per-event ground truth
};

/// One timed event with full ground truth, for error analysis.
struct CaptureRecord {
  aer::Event request;     ///< address + actual REQ rise time (ground truth)
  Time sample_edge;       ///< sampling edge where the FSM consumed it
  aer::AetrWord word;     ///< produced AETR word
};

/// The AER-to-AETR sampling unit.
class AerFrontEnd {
 public:
  /// Per-word downstream delivery. Invoked once per timestamped event — the
  /// hottest callback in the pipeline — so it is a small-buffer
  /// InplaceFunction, not a std::function: typical captures (a component
  /// pointer or two) store inline and dispatch without an allocator
  /// round-trip (asserted in tests/test_word_path_alloc.cpp).
  using WordFn = util::InplaceFunction<void(aer::AetrWord, Time)>;

  AerFrontEnd(sim::Scheduler& sched, aer::AerChannel& channel,
              clockgen::ClockGenerator& clkgen, FrontEndConfig config = {});

  /// Register the downstream consumer of AETR words (the FIFO buffer).
  void on_word(WordFn fn) { word_fn_ = std::move(fn); }

  /// Events timestamped so far.
  [[nodiscard]] std::uint64_t events() const { return events_; }

  /// Events whose timestamp saturated (clock had shut down).
  [[nodiscard]] std::uint64_t saturated_events() const { return saturated_; }

  /// Extra-edge metastability resolutions injected.
  [[nodiscard]] std::uint64_t metastable_hits() const { return metastable_; }

  /// Ground-truth capture log (empty when keep_records is false).
  [[nodiscard]] const std::vector<CaptureRecord>& records() const {
    return records_;
  }

  /// Drop the records logged so far (capacity is kept). A session that
  /// runs without history folds each chunk of the log into its error
  /// scorer and then clears it, so the log never outgrows one advance.
  void clear_records() { records_.clear(); }

  /// Hand the capture log to the caller, leaving it empty (end of run).
  [[nodiscard]] std::vector<CaptureRecord> take_records() {
    return std::move(records_);
  }

  /// Address-bus flip lottery + runt filtering. Null (default) is inert.
  void attach_faults(fault::FaultInjector* faults) { faults_ = faults; }

  /// True while a capture FSM pass is between REQ observation and its
  /// sample edge — the watchdog must not re-deliver during this window.
  [[nodiscard]] bool in_flight() const { return in_flight_; }

  /// Handshake-watchdog entry point: if the wire shows a pending REQ that
  /// the synchroniser missed (dropped edge, or a capture aborted on a runt
  /// dip) and no capture is in flight, re-deliver it. Returns true when a
  /// capture was restarted.
  bool resync(Time now);

  // --- fast path -----------------------------------------------------------
  // The analytic interpreter (core/fast_path) bypasses the AER wire: it
  // hands the address and the REQ-rise instant straight to the front-end.
  // begin() performs everything handle_request does up to and including the
  // clock-generator measurement (same RNG draw order, so fault and
  // metastability lotteries stay bit-identical); commit() performs the
  // sample-edge work (word, counters, records, word_fn_) and is deferred so
  // the caller can order it against other timeline activity at the edge.
  struct FastCapture {
    aer::Event request;     ///< ground-truth address + REQ rise time
    std::uint16_t latched;  ///< address as latched (post fault lottery)
    Time edge;              ///< absolute sample-edge time
    std::uint64_t ticks;    ///< latched timestamp-counter value
    bool saturated;         ///< counter hit the saturation marker
  };
  FastCapture fast_capture_begin(std::uint16_t addr, Time req_abs);
  void fast_capture_commit(const FastCapture& c);

  /// Serialize RNG/records/counter state. Requires no capture in flight.
  /// The isi histogram pointer is re-acquired via the telemetry session at
  /// reconstruction; its contents are restored with the metrics registry.
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  void handle_request(Time t);

  sim::Scheduler& sched_;
  aer::AerChannel& channel_;
  clockgen::ClockGenerator& clkgen_;
  FrontEndConfig cfg_;
  WordFn word_fn_;
  fault::FaultInjector* faults_{nullptr};
  bool in_flight_{false};
  Xoshiro256StarStar rng_;
  std::vector<CaptureRecord> records_;
  std::uint64_t events_{0};
  std::uint64_t saturated_{0};
  std::uint64_t metastable_{0};
  // Telemetry (no-ops unless a session is attached to the scheduler):
  // "capture" spans cover REQ rise -> sample edge, instants mark
  // metastable resolutions and timestamp-counter saturation.
  telemetry::BlockTelemetry tel_;
  LogHistogram* isi_hist_{nullptr};  ///< inter-capture interval, seconds
  Time last_edge_{Time::zero()};
  bool have_last_edge_{false};
};

}  // namespace aetr::frontend
