// Unified telemetry: sim-time tracing spans + a sampled metrics registry.
//
// The paper's headline claim is energy *proportionality* — power tracks the
// event rate over time — and the only honest way to show that for a full
// pipeline is a timeline correlating per-block activity. This subsystem
// gives every block one:
//
//  * TraceSession — records spans (begin/end or complete), instant events
//    and counter tracks in the *simulated* timebase, one track per pipeline
//    block, and exports them as Chrome trace-event JSON (loadable in
//    Perfetto / chrome://tracing) plus a compact CSV.
//  * MetricsRegistry — named sampled probes (counters/gauges read through a
//    callback at snapshot time, so the hot path pays nothing) and log-scale
//    histograms (util::LogHistogram) fed at emission sites. Snapshots are
//    taken on a sim-time grid, like power::PowerProbe's windows.
//  * TelemetrySession — one run's trace + metrics + artifact paths.
//  * BlockTelemetry — the per-component facade the pipeline blocks hold.
//
// Cost model. Telemetry is off unless a session is attached to the run's
// scheduler: every emission site is a single null-pointer test. Compiling
// with AETR_TELEMETRY=0 turns that test into a compile-time constant, so
// the instrumentation folds away entirely and the binary matches an
// uninstrumented build. All recorded timestamps are simulation time, so
// for a fixed (config, stream, seed) the exported artifacts are
// byte-identical whatever the host, thread count or wall-clock speed.
//
// Layering: telemetry depends only on util (Time, LogHistogram); sim sits
// *above* it so the Scheduler can carry the session pointer every component
// already has access to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.hpp"
#include "util/time.hpp"

namespace aetr {
class BlobWriter;
class BlobReader;
}  // namespace aetr

#ifndef AETR_TELEMETRY
#define AETR_TELEMETRY 1  // compiled in by default; -DAETR_TELEMETRY=0 strips
#endif

namespace aetr::telemetry {

/// True when the library was built with instrumentation compiled in.
[[nodiscard]] constexpr bool compiled_in() { return AETR_TELEMETRY != 0; }

/// One named numeric argument attached to a trace event. Keys must point at
/// static storage (string literals at the instrumentation sites).
struct TraceArg {
  const char* key;
  double value;
};

/// Sim-time trace recorder. Events carry a track (one per pipeline block,
/// rendered as a named thread in Perfetto), a phase, a name and up to two
/// numeric args. Event names must be string literals (or interned strings —
/// see intern()); the session stores the pointers, not copies.
class TraceSession {
 public:
  using Track = std::uint32_t;

  enum class Phase : char {
    kBegin = 'B',     ///< span opens (closed by the next kEnd on the track)
    kEnd = 'E',       ///< span closes
    kComplete = 'X',  ///< self-contained span with explicit duration
    kInstant = 'i',   ///< point event
    kCounter = 'C',   ///< sampled counter value (own track lane in Perfetto)
  };

  struct Event {
    Phase phase;
    Track track;
    const char* name;
    Time ts;
    Time dur;  ///< kComplete only
    std::uint8_t n_args{0};
    TraceArg args[2]{};
  };

  explicit TraceSession(std::size_t max_events = 1u << 20)
      : max_events_{max_events} {}

  /// Get-or-create the track named `name`. Deterministic: ids are assigned
  /// in first-use order, which is fixed for a fixed program.
  Track track(const std::string& name);

  void begin(Track t, const char* name, Time ts,
             std::initializer_list<TraceArg> args = {}) {
    push(Phase::kBegin, t, name, ts, Time::zero(), args);
  }
  void end(Track t, const char* name, Time ts) {
    push(Phase::kEnd, t, name, ts, Time::zero(), {});
  }
  void complete(Track t, const char* name, Time start, Time end,
                std::initializer_list<TraceArg> args = {}) {
    push(Phase::kComplete, t, name, start, end - start, args);
  }
  void instant(Track t, const char* name, Time ts,
               std::initializer_list<TraceArg> args = {}) {
    push(Phase::kInstant, t, name, ts, Time::zero(), args);
  }
  void counter(Track t, const char* name, Time ts, double value) {
    push(Phase::kCounter, t, name, ts, Time::zero(), {{name, value}});
  }

  /// Copy a dynamic string into session-owned stable storage and return a
  /// pointer usable as an event name for the session's lifetime.
  const char* intern(const std::string& s);

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] const std::vector<std::string>& track_names() const {
    return track_names_;
  }
  /// Events discarded after the max_events cap was hit (never silent:
  /// exported files carry the count in their metadata).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON (open in Perfetto or chrome://tracing).
  /// Deterministic: events are stably sorted by (ts, record order) and all
  /// numbers are formatted from integers or via fixed %.9g.
  void write_chrome_json(const std::string& path) const;
  /// Compact CSV: track,phase,name,ts_ps,dur_ps,arg keys/values.
  void write_csv(const std::string& path) const;

  /// Serialize tracks + events (names and arg keys stringized) + the drop
  /// counter. restore_state() replaces the whole recording: names are
  /// re-interned, so restored artifacts are byte-identical even though the
  /// pointers differ.
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  void push(Phase phase, Track t, const char* name, Time ts, Time dur,
            std::initializer_list<TraceArg> args);

  std::size_t max_events_;
  std::vector<Event> events_;
  std::vector<std::string> track_names_;
  std::deque<std::string> interned_;
  std::uint64_t dropped_{0};
};

/// Sampled metrics. Probes are registered once (at component construction)
/// with a callback that reads the component's own counter; snapshot() walks
/// the probes on a sim-time grid. The running pipeline never touches the
/// registry — only the snapshot tick does — so metrics cost nothing
/// between grid points. Histograms are the exception: they are fed at
/// emission sites (guarded by the session null-test like all telemetry).
class MetricsRegistry {
 public:
  using SampleFn = std::function<double()>;

  /// Register a named probe. Names must be unique per session (later
  /// registrations of the same name replace the sampler, keeping column
  /// identity stable for re-wired components).
  void probe(const std::string& name, SampleFn fn);

  /// Get-or-create a log-scale histogram over [lo, hi). The returned
  /// pointer stays valid for the registry's lifetime (deque storage), so
  /// components may cache it across later registrations.
  LogHistogram* log_histogram(const std::string& name, double lo, double hi,
                              std::size_t bins_per_decade);

  /// Sample every probe at sim time `t` and append one snapshot row.
  void snapshot(Time t);

  struct Snapshot {
    Time at;
    std::vector<double> values;  ///< aligned with names()
  };

  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] const std::vector<Snapshot>& snapshots() const {
    return snapshots_;
  }
  [[nodiscard]] double last(const std::string& name) const;

  /// Registered histograms in registration order (name, histogram).
  [[nodiscard]] const std::deque<std::pair<std::string, LogHistogram>>&
  histograms() const {
    return histograms_;
  }

  /// Two-section CSV: the snapshot grid (time_ms + one column per probe in
  /// registration order), then the histograms as long-format rows.
  void write_csv(const std::string& path) const;

  /// Serialize snapshot rows + histogram contents. Probes re-register at
  /// component reconstruction; restore_state() requires every saved
  /// histogram to exist already (matched by name, same geometry).
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  std::vector<std::string> names_;
  std::vector<SampleFn> samplers_;
  std::vector<Snapshot> snapshots_;
  std::deque<std::pair<std::string, LogHistogram>> histograms_;
};

/// Per-run telemetry configuration (core::ScenarioConfig::telemetry).
struct SessionOptions {
  bool trace = false;    ///< record spans / instants / counters
  bool metrics = false;  ///< register probes + sample the snapshot grid
  Time metrics_window = Time::ms(1.0);  ///< snapshot grid pitch
  std::size_t max_trace_events = 1u << 20;
  // Artifact paths; empty = don't write that artifact. Written by the
  // run's core::Session when it finishes.
  std::string trace_json_path;
  std::string trace_csv_path;
  std::string metrics_csv_path;

  [[nodiscard]] bool any() const { return trace || metrics; }
};

/// One run's telemetry: a trace session, a metrics registry and the
/// artifact plumbing, behind runtime enable flags.
class TelemetrySession {
 public:
  explicit TelemetrySession(SessionOptions options = {})
      : opt_{std::move(options)}, trace_{opt_.max_trace_events} {}

  [[nodiscard]] bool trace_on() const {
    return compiled_in() && opt_.trace;
  }
  [[nodiscard]] bool metrics_on() const {
    return compiled_in() && opt_.metrics;
  }
  [[nodiscard]] const SessionOptions& options() const { return opt_; }

  [[nodiscard]] TraceSession& trace() { return trace_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const TraceSession& trace() const { return trace_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Clock used by the RAII Span (set by the harness to the scheduler's
  /// now()); explicit-time emission through BlockTelemetry never needs it.
  void set_clock(std::function<Time()> clock) { clock_ = std::move(clock); }
  [[nodiscard]] Time clock_now() const {
    return clock_ ? clock_() : Time::zero();
  }

  /// Write every configured artifact path.
  void write_artifacts() const;

  /// Serialize/restore the recorded trace + metrics (options are config).
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  SessionOptions opt_;
  TraceSession trace_;
  MetricsRegistry metrics_;
  std::function<Time()> clock_;
};

/// The per-component handle: a session pointer plus the block's track id.
/// Every call is a null test when telemetry is runtime-disabled and folds
/// away entirely when compiled out.
class BlockTelemetry {
 public:
  BlockTelemetry() = default;
  BlockTelemetry(TelemetrySession* session, const char* block) {
#if AETR_TELEMETRY
    if (session != nullptr && session->trace_on()) {
      session_ = session;
      track_ = session->trace().track(block);
    }
    if (session != nullptr && session->metrics_on()) {
      metrics_ = &session->metrics();
    }
#else
    (void)session;
    (void)block;
#endif
  }

  [[nodiscard]] bool tracing() const {
#if AETR_TELEMETRY
    return session_ != nullptr;
#else
    return false;
#endif
  }
  /// Registry for probe registration / histograms; null when metrics are
  /// disabled (or telemetry is compiled out).
  [[nodiscard]] MetricsRegistry* metrics() const {
#if AETR_TELEMETRY
    return metrics_;
#else
    return nullptr;
#endif
  }

  // The [[unlikely]] hints bias codegen toward the disabled path: sessions
  // are attached only when a run asks for tracing, so the straight-line
  // code through every emission site is the fall-through no-op.
  void begin(const char* name, Time ts,
             std::initializer_list<TraceArg> args = {}) {
    if (tracing()) [[unlikely]] session_->trace().begin(track_, name, ts, args);
  }
  void end(const char* name, Time ts) {
    if (tracing()) [[unlikely]] session_->trace().end(track_, name, ts);
  }
  void complete(const char* name, Time start, Time end_ts,
                std::initializer_list<TraceArg> args = {}) {
    if (tracing()) [[unlikely]] {
      session_->trace().complete(track_, name, start, end_ts, args);
    }
  }
  void instant(const char* name, Time ts,
               std::initializer_list<TraceArg> args = {}) {
    if (tracing()) [[unlikely]] {
      session_->trace().instant(track_, name, ts, args);
    }
  }
  void counter(const char* name, Time ts, double value) {
    if (tracing()) [[unlikely]] {
      session_->trace().counter(track_, name, ts, value);
    }
  }

 private:
  TelemetrySession* session_{nullptr};
  MetricsRegistry* metrics_{nullptr};
  TraceSession::Track track_{0};
};

/// RAII span on a named track, timed by the session clock. For DES
/// components — whose spans open and close in different callbacks — the
/// explicit begin()/end() API is the right tool; Span serves harness-level
/// scopes (a whole run, a sweep job) that do nest lexically.
class Span {
 public:
  Span() = default;
  Span(TelemetrySession* session, const char* track, const char* name,
       std::initializer_list<TraceArg> args = {}) {
#if AETR_TELEMETRY
    if (session != nullptr && session->trace_on()) {
      session_ = session;
      track_ = session->trace().track(track);
      name_ = name;
      session->trace().begin(track_, name, session->clock_now(), args);
    }
#else
    (void)session;
    (void)track;
    (void)name;
    (void)args;
#endif
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { swap(other); }
  Span& operator=(Span&& other) noexcept {
    close();
    swap(other);
    return *this;
  }

  /// End the span early (idempotent; the destructor does the same).
  void close() {
#if AETR_TELEMETRY
    if (session_ != nullptr) {
      session_->trace().end(track_, name_, session_->clock_now());
      session_ = nullptr;
    }
#endif
  }

 private:
  void swap(Span& other) {
    std::swap(session_, other.session_);
    std::swap(track_, other.track_);
    std::swap(name_, other.name_);
  }
  TelemetrySession* session_{nullptr};
  TraceSession::Track track_{0};
  const char* name_{""};
};

}  // namespace aetr::telemetry
