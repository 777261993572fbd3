// Incremental run API: a core::Session is a live simulated system that
// accepts AER events as they arrive (feed), advances simulated time under
// caller control with bounded internal buffering (advance_to + the
// backpressure signal), and can serialize its complete state to a versioned
// binary blob at any quiescent point (snapshot/restore) such that a killed
// and resumed run is byte-identical to the same run left uninterrupted.
//
// The batch entry points in core/scenario.hpp are thin wrappers over this
// class: construct, then feed the stream in chunks of at most 4096 events
// (feed_all), advancing to each chunk's last event so the input buffer
// never holds much more than one chunk, then finish(). A telemetry run
// feeds every chunk before the first advance instead, because the runner
// span records the events fed when the timeline starts. Advancing is
// transparent, so both orders give the result of feeding the whole stream
// at once. run_scenario() keeps per-event history; run_scenario_totals()
// turns it off first (set_keep_history), so it returns the same aggregates
// with `records`, `decoded` and `delivery_latency_sec` left empty.
//
// Service harnesses stream into a session through core::IngestPump
// (core/ingest.hpp): feed, advance_to under backpressure, snapshot on the
// simulated clock, finish(). A resumed session restore()s the last blob
// (same config, fingerprint-checked) and is fed from events_fed() on.
//
// See docs/SERVICE.md for the snapshot format and backpressure contract.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace aetr::core {

class Session {
 public:
  /// Snapshot blob format version (bumped on any layout change; restore
  /// rejects blobs whose version or config fingerprint does not match).
  static constexpr std::uint32_t kSnapshotVersion = 5;
  /// The magic "AETRSNAP" and the u32 LE version.
  static constexpr std::size_t kSnapshotHeaderBytes = 12;
  /// Why `header` does not start a blob this build restores ("" when it
  /// does); restore() and net::read_blob() both check with it.
  [[nodiscard]] static std::string snapshot_header_error(
      std::span<const std::uint8_t> header);

  /// Build the full system (scheduler, interface, sender, checker, MCU,
  /// telemetry, fault injector).
  /// Construction schedules nothing and does not advance time. Throws
  /// std::invalid_argument via ScenarioConfig::validate().
  explicit Session(const ScenarioConfig& scenario);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- streaming input ------------------------------------------------------

  /// Buffer one event for later submission. Events must be fed in
  /// non-decreasing time order, none later than aer::kLatestEventTime
  /// (throws std::invalid_argument otherwise).
  /// Returns false — and does NOT accept the event — when the internal
  /// buffer already holds session.max_buffered_events; the caller should
  /// advance_to() to drain the buffer, then retry.
  bool feed(const aer::Event& ev);

  /// Batch replay: buffer a whole chunk at once, ignoring the backpressure
  /// cap, through feed_run(). This is what the run_scenario() entry points
  /// use — a batch caller already holds the stream, so bounding the
  /// session's copy of it protects nothing. Same ordering contract as
  /// feed(): the events before the first one that goes back in time or
  /// past aer::kLatestEventTime are accepted (events_fed() counts them),
  /// then it throws std::invalid_argument.
  void feed_all(std::span<const aer::Event> events);

  /// The one append behind feed_all() and core::IngestPump. A single pass
  /// over the front of `events` checks each against the last event fed
  /// and stops before the first that goes back in time or past
  /// aer::kLatestEventTime, after `limit` events, or after the first event
  /// at or past `cut`; the events it passed are then copied into the
  /// buffer at once (one copy, one counter update), ignoring the
  /// backpressure cap. Returns how many it took. Within the cap
  /// (limit <= room()) it leaves the session exactly as a loop of feed()
  /// calls would, which lets the pump feed in runs.
  std::size_t feed_run(std::span<const aer::Event> events, std::size_t limit,
                       Time cut);

  /// Fed-but-not-yet-submitted events currently held.
  [[nodiscard]] std::size_t buffered() const;

  /// True when feed() would refuse input right now.
  [[nodiscard]] bool backpressure() const;

  /// Events feed() would accept right now before refusing: the buffer's
  /// free room under session.max_buffered_events (0 under backpressure).
  [[nodiscard]] std::size_t room() const;

  /// Time of the last event accepted, restored ones included (nullopt
  /// before the first). The next event fed must not be earlier.
  [[nodiscard]] std::optional<Time> last_event_time() const;

  /// Total events accepted over the session's lifetime.
  [[nodiscard]] std::uint64_t events_fed() const;

  // --- simulated time -------------------------------------------------------

  /// Submit every buffered event with time <= t to the sender, then run
  /// the system up to exactly t (events beyond t stay buffered). A t in
  /// the past is clamped to position(). First call arms the session's
  /// standing services (metrics grid, handshake watchdog, runner span).
  /// A session whose scenario is fast-path eligible runs the analytic
  /// engine (core/fast_path.hpp) instead of the scheduler, with unchanged
  /// semantics: the result is the event-driven run's, byte for byte.
  void advance_to(Time t);

  /// Current simulated time.
  [[nodiscard]] Time position() const;

  // --- snapshot / restore ---------------------------------------------------

  /// Serialize the complete simulator state to a versioned blob. The
  /// session first settles: input submission pauses while the scheduler
  /// drains in-flight transients (a handshake mid-flight, an I2S drain)
  /// until every pending scheduler event is a standing timer it knows
  /// how to re-arm (metrics grid tick, watchdog check, drain-timeout
  /// deadlines, the sender's next launch). Settling dispatches that
  /// work at exactly the times an uninterrupted run would, but it
  /// advances position() to the quiescent point — so a snapshot is a
  /// synchronization point in the run, not an invisible observation: an
  /// event fed later whose timestamp falls inside the settled window is
  /// a late arrival and launches when the system next sees it. The run
  /// remains a deterministic function of (stream, snapshot schedule),
  /// and a restored session continues byte-identically to the run that
  /// took the snapshot. An eligible session settles in the analytic
  /// engine to the same quiescent point. Throws std::runtime_error if the
  /// system refuses to settle (pathological configs only).
  [[nodiscard]] std::vector<std::uint8_t> snapshot();

  /// Restore a blob into this freshly constructed session (same
  /// ScenarioConfig — the embedded config fingerprint is checked, throws
  /// std::runtime_error on any mismatch). After restore the session
  /// continues byte-identically to the run that took the snapshot.
  void restore(const std::vector<std::uint8_t>& blob);

  /// dump_scenario() of this session's scenario: the config fingerprint
  /// every snapshot embeds and restore() checks. Dumped once, on first use.
  [[nodiscard]] const std::string& config_text() const;

  // --- completion -----------------------------------------------------------

  /// Submit all remaining buffered input, run the stream to completion
  /// (final flush, cooldown, MCU batch flush, telemetry artifacts) and
  /// assemble the RunResult — in the analytic engine when the scenario is
  /// eligible, as for every other call. The session is finished
  /// afterwards: further feed/advance/snapshot calls throw
  /// std::logic_error.
  [[nodiscard]] RunResult finish();

  [[nodiscard]] bool finished() const;

  // --- service-mode knobs / component access --------------------------------

  /// Drop per-event history (sender sent-log, MCU decoded-event log,
  /// delivery-latency harvest, front-end capture log) so an endless ingest
  /// loop runs at a steady-state RSS ceiling and its snapshots stay the
  /// size of the input buffer. Call before the first advance. The capture
  /// log is folded into the timestamp-error stats after every advance and
  /// snapshot, so RunResult::error comes back exactly as with history on;
  /// RunResult::records, decoded and delivery_latency_sec come back empty.
  /// Counters are unaffected, RunResult::delivered included.
  void set_keep_history(bool keep);

  /// The session's own telemetry (null when telemetry is off). Stays
  /// readable after finish(), for as long as the Session lives.
  [[nodiscard]] telemetry::TelemetrySession* telemetry_session();

  /// Component access, for reading. The analytic engine runs each
  /// handshake whole once it has launched, so after advance_to() its
  /// components may already include a handshake that the event-driven
  /// path is still in the middle of; at a snapshot's settle point and
  /// after finish() both paths hold the same state.
  [[nodiscard]] AerToI2sInterface& interface();
  [[nodiscard]] sim::Scheduler& scheduler();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Test seam to the event-driven oracle: while an engaged scope is alive,
/// every Session constructed (on any thread; each reads the count once, at
/// construction) runs the DES even where fast_path_eligible() holds. No
/// config key, CLI flag, HELLO or environment variable reaches it.
class DesOracleScope {
 public:
  explicit DesOracleScope(bool engage = true);  ///< false: an inert scope
  ~DesOracleScope();
  DesOracleScope(const DesOracleScope&) = delete;
  DesOracleScope& operator=(const DesOracleScope&) = delete;

 private:
  bool engaged_;
};

}  // namespace aetr::core
