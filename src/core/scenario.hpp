// The unified run API: one validated, config_io-round-trippable object
// describing everything a run needs — per-block interface configs, the
// sensor-side wire timing, the fault plan with its recovery knobs, and the
// telemetry options — consumed by run_scenario(), run_scenario_totals() and
// core::Session.
#pragma once

#include <cstdint>
#include <vector>

#include "aer/agents.hpp"
#include "aer/event.hpp"
#include "analysis/error.hpp"
#include "core/interface.hpp"
#include "fault/fault_plan.hpp"
#include "gen/sources.hpp"
#include "obs/ledger.hpp"
#include "power/model.hpp"
#include "telemetry/telemetry.hpp"

namespace aetr::core {

/// Session-lifecycle limits (`session.*`): how much input a streaming
/// core::Session may buffer before signalling backpressure. Batch runs
/// through run_scenario() never hit the limit.
struct SessionLimits {
  /// Fed-but-not-yet-submitted events the session holds before feed()
  /// starts refusing input (the backpressure signal).
  std::size_t max_buffered_events = std::size_t{1} << 20;
};

/// Everything one run needs, in one place.
struct ScenarioConfig {
  InterfaceConfig interface;        ///< per-block hardware configuration
  aer::SenderTiming sender;         ///< sensor-side wire timing
  fault::FaultPlan faults;          ///< injected faults + recovery knobs
  Time cooldown = Time::ms(1.0);    ///< settle time after last event
  bool strict_protocol = false;     ///< throw on AER violations
  bool final_flush = true;          ///< drain FIFO residue at the end
  bool attach_mcu = true;           ///< decode the I2S stream
  /// Fill RunResult::ledger (obs::EnergyLedger) from the run's counters.
  /// Pure post-hoc arithmetic: never perturbs the run, and off leaves
  /// RunResult bit-identical to a build without the ledger.
  bool energy_ledger = false;
  SessionLimits session;            ///< streaming-session lifecycle limits
  /// Per-run telemetry. Off exactly when !telemetry.any(); otherwise the
  /// session owns a TelemetrySession built from these options and writes
  /// its artifacts when the run finishes.
  telemetry::SessionOptions telemetry;

  /// The most any time key may hold, and the most the clock's awake span
  /// may reach: an event time (at most aer::kLatestEventTime,
  /// Time::max() / 2) plus one of them stays a Time.
  static constexpr Time kMaxTime = Time::max() / 4;

  /// Throws std::invalid_argument on the first inconsistency (probability
  /// out of [0,1], zero-width runt, degenerate FIFO geometry, a time key
  /// outside [0, kMaxTime] named by its key, ...).
  void validate() const;
};

/// Everything measured in one run.
struct RunResult {
  // Power
  power::ActivityTotals activity;
  double average_power_w{0.0};
  power::PowerBreakdown breakdown;
  // Accuracy
  analysis::ErrorStats error;
  std::vector<frontend::CaptureRecord> records;
  // Data path
  std::vector<aer::TimedEvent> decoded;  ///< MCU-side reconstructed events
  /// Events the MCU decoded: decoded.size() with history on, and the same
  /// count when a history-off run leaves `decoded` empty.
  std::uint64_t delivered{0};
  /// Per decoded event: sim time between the event (its reconstructed
  /// instant) and the MCU accepting the batch carrying it — the delivery
  /// latency the FIFO batching trades against power. Same order as
  /// `decoded`; empty when no MCU is attached.
  std::vector<double> delivery_latency_sec;
  std::uint64_t events_in{0};
  std::uint64_t words_out{0};
  std::uint64_t fifo_overflows{0};
  std::uint64_t batches{0};
  // Protocol
  std::uint64_t handshakes{0};
  std::uint64_t caviar_violations{0};
  std::uint64_t protocol_violations{0};
  // Faults (all zero when the scenario's plan is empty)
  fault::FaultCounters faults;
  /// Energy-attribution ledger (obs). Default-constructed (enabled ==
  /// false, all zeros) unless ScenarioConfig::energy_ledger asked for it.
  obs::EnergyLedger ledger;
  // Timeline
  Time sim_end{Time::zero()};
  double input_rate_hz{0.0};  ///< measured from the stream span
  // Interface scale factors (for re-scoring the records externally)
  Time tick_unit{Time::zero()};        ///< Tmin
  Time saturation_span{Time::zero()};  ///< max measurable interval
};

/// Run a pre-materialised stream through a freshly built system. Every
/// batch entry point feeds and advances its session one 4096-event chunk
/// at a time (core/session.hpp); the result is the one-shot run's.
[[nodiscard]] RunResult run_scenario(const ScenarioConfig& scenario,
                                     const aer::EventStream& events);

/// Draw `n_events` from a source (fewer if it runs dry) and run them. The
/// stimulus streams into the session in fixed-size chunks, so the whole
/// stream is never materialised first; the result equals run_scenario()
/// over gen::take(source, n_events), field for field.
[[nodiscard]] RunResult run_scenario(const ScenarioConfig& scenario,
                                     gen::SpikeSource& source,
                                     std::size_t n_events);

/// The same run with per-event history off (Session::set_keep_history):
/// every aggregate field (power, activity, breakdown, error, counters,
/// delivered, ledger, sim_end, input_rate_hz) is bit-identical to
/// run_scenario(scenario, source, n_events), while `records`, `decoded`
/// and `delivery_latency_sec` come back empty. For callers that read
/// aggregates only, such as the Fig. 8 power sweep.
[[nodiscard]] RunResult run_scenario_totals(const ScenarioConfig& scenario,
                                            gen::SpikeSource& source,
                                            std::size_t n_events);

}  // namespace aetr::core
