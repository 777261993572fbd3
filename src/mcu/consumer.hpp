// MCU-side consumer model (the STM32-L476 of paper Fig. 3).
//
// The whole point of AETR is that the stream is latency-insensitive: the
// MCU can sleep while the interface accumulates a batch, then decode the
// batch at leisure. This module reconstructs absolute event times from the
// delta timestamps, estimates instantaneous event rate, and accumulates the
// time-frequency representation that the "time-to-information" pipeline is
// after.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "aer/event.hpp"
#include "fault/injector.hpp"
#include "telemetry/telemetry.hpp"
#include "util/time.hpp"

namespace aetr {
class BlobWriter;
class BlobReader;
}  // namespace aetr

namespace aetr::mcu {

/// Turns a sequence of AETR words back into absolute event times.
///
/// `tick_unit` is the Tmin the interface counted in; `saturation_span` is
/// the interface's maximum measurable interval (clock-off threshold): a
/// saturated word only says "at least this much time passed", so the
/// decoder advances by exactly that span and flags the event.
class AetrDecoder {
 public:
  AetrDecoder(Time tick_unit, Time saturation_span);

  /// Decode the next word of the stream.
  aer::TimedEvent decode(aer::AetrWord word);

  /// Restart reconstruction from the given absolute origin.
  void reset(Time origin = Time::zero());

  [[nodiscard]] Time clock() const { return clock_; }
  [[nodiscard]] std::uint64_t decoded() const { return decoded_; }
  [[nodiscard]] std::uint64_t saturated() const { return saturated_; }

  /// Raw accumulator state, for snapshot/restore.
  struct State {
    Time clock;
    std::uint64_t decoded;
    std::uint64_t saturated;
  };
  [[nodiscard]] State state() const { return {clock_, decoded_, saturated_}; }
  void set_state(const State& s) {
    clock_ = s.clock;
    decoded_ = s.decoded;
    saturated_ = s.saturated;
  }

 private:
  Time tick_unit_;
  Time saturation_span_;
  Time clock_{Time::zero()};
  std::uint64_t decoded_{0};
  std::uint64_t saturated_{0};
};

/// Exponentially windowed instantaneous-rate estimator over event times.
class RateEstimator {
 public:
  explicit RateEstimator(Time tau = Time::ms(10.0));

  void add(Time t);

  /// Current estimate in events/second (decayed to `now`).
  [[nodiscard]] double rate_hz(Time now) const;

 private:
  double tau_sec_;
  double level_{0.0};  ///< rate estimate at last event
  Time last_{Time::zero()};
  bool primed_{false};
};

/// Accumulates events into a (group x time-bin) count matrix — the
/// "predistilled time-frequency representation" the paper's introduction
/// describes, rebuilt on the MCU side from the AETR stream.
class TimeFrequencyMap {
 public:
  using GroupFn = std::function<std::size_t(std::uint16_t address)>;

  TimeFrequencyMap(std::size_t groups, Time bin_width, GroupFn group_of);

  void add(const aer::TimedEvent& ev);

  [[nodiscard]] std::size_t groups() const { return groups_; }
  [[nodiscard]] std::size_t bins() const;
  [[nodiscard]] std::uint64_t count(std::size_t group, std::size_t bin) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Render as an ASCII cochleagram (rows = groups, top row = last group).
  [[nodiscard]] std::string ascii() const;

 private:
  std::size_t groups_;
  Time bin_width_;
  GroupFn group_of_;
  std::vector<std::vector<std::uint64_t>> counts_;  // [group][bin]
  std::uint64_t total_{0};
};

/// End-to-end consumer: feed it the I2S word stream, read back the decoded
/// events and batch statistics.
class McuConsumer {
 public:
  McuConsumer(Time tick_unit, Time saturation_span,
              Time batch_gap = Time::us(50.0));

  /// Hook for I2sMaster::on_word.
  void on_word(aer::AetrWord word, Time arrival);

  [[nodiscard]] const std::vector<aer::TimedEvent>& events() const {
    return events_;
  }
  /// Hand the decoded log to the caller, leaving it empty (end of run).
  [[nodiscard]] std::vector<aer::TimedEvent> take_events() {
    return std::move(events_);
  }
  [[nodiscard]] const AetrDecoder& decoder() const { return decoder_; }

  /// Words separated by more than `batch_gap` of bus idle time count as
  /// separate batches (the MCU sleeps in between).
  [[nodiscard]] std::uint64_t batches() const { return batches_; }
  [[nodiscard]] std::uint64_t words() const { return words_; }

  /// Total I2S-bus-active time (the MCU must be awake at least this long).
  [[nodiscard]] Time bus_active() const { return bus_active_; }

  /// Attach run telemetry (the consumer holds no scheduler reference, so
  /// the harness passes the session explicitly). Emits "batch_start"
  /// instants and "decode" instants for saturated words; registers mcu.*
  /// probes.
  void attach_telemetry(telemetry::TelemetrySession* session);

  /// Attach the run's fault injector. When the plan's CRC batch framing is
  /// active (fault::crc_framing_active) the consumer defers decoding: words
  /// accumulate until one matches the running CRC-32 of the accumulated
  /// payload (the frame trailer the I2S master appended), at which point the
  /// whole batch is accepted. A bus-idle gap or end-of-run flushes any
  /// unterminated payload as a rejected batch. Null is inert.
  void attach_faults(fault::FaultInjector* faults);

  /// End-of-run hook: flush (and reject) any CRC-pending payload.
  void finish(Time now);

  /// When false, decoded events are no longer appended to events(); bounds
  /// memory for endless serve-mode streams (disables latency harvesting).
  void set_keep_events(bool keep) { keep_events_ = keep; }

  /// Serialize decoder/batch state (crc_gate_ is reconstructed by
  /// attach_faults at component reconstruction).
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  void decode_one(aer::AetrWord word, Time arrival);
  void reject_pending(Time now);

  AetrDecoder decoder_;
  Time batch_gap_;
  std::vector<aer::TimedEvent> events_;
  fault::FaultInjector* faults_{nullptr};
  bool crc_gate_{false};
  std::vector<std::uint32_t> pending_;  ///< payload awaiting its CRC trailer
  std::uint32_t running_crc_{0};
  std::uint64_t batches_{0};
  std::uint64_t words_{0};
  Time last_arrival_{Time::zero()};
  Time bus_active_{Time::zero()};
  bool any_{false};
  bool keep_events_{true};
  telemetry::BlockTelemetry tel_;
};

}  // namespace aetr::mcu
