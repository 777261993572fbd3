#include "core/session.hpp"

#include <atomic>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "aer/caviar.hpp"
#include "analysis/error.hpp"
#include "core/config_io.hpp"
#include "core/fast_path.hpp"
#include "mcu/consumer.hpp"
#include "sim/scheduler.hpp"
#include "util/blob.hpp"
#include "util/crc32.hpp"

namespace aetr::core {

namespace {

constexpr char kSnapshotMagic[8] = {'A', 'E', 'T', 'R',
                                    'S', 'N', 'A', 'P'};
/// CRC-32 over every byte before it, appended as a u32 LE.
constexpr std::size_t kTrailerBytes = 4;

/// Settle-loop bound. Every iteration dispatches at least one scheduler
/// event at its exact scheduled time, so the only way to spin this long is
/// a config whose transients never die (which no validated scenario has).
constexpr int kMaxSettleIterations = 1'000'000;

std::atomic<int> g_des_oracle_scopes{0};  ///< engaged DesOracleScopes

}  // namespace

DesOracleScope::DesOracleScope(bool engage) : engaged_{engage} {
  if (engaged_) ++g_des_oracle_scopes;
}
DesOracleScope::~DesOracleScope() {
  if (engaged_) --g_des_oracle_scopes;
}

std::string Session::snapshot_header_error(
    std::span<const std::uint8_t> header) {
  if (header.size() < kSnapshotHeaderBytes ||
      std::memcmp(header.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0) {
    return "not a session snapshot";
  }
  const std::uint32_t version =
      BlobReader{header.data() + sizeof kSnapshotMagic, 4}.u32();
  if (version == kSnapshotVersion) return {};
  return "snapshot version " + std::to_string(version) + " != supported " +
         std::to_string(kSnapshotVersion);
}

struct Session::Impl {
  ScenarioConfig scenario;
  sim::Scheduler sched;

  std::optional<telemetry::TelemetrySession> owned_tel;
  telemetry::TelemetrySession* tel{nullptr};  ///< &*owned_tel, or null
  std::optional<fault::FaultInjector> injector;
  fault::FaultInjector* faults{nullptr};
  std::optional<AerToI2sInterface> iface;
  std::optional<aer::AerSender> sender;
  std::optional<aer::CaviarChecker> caviar;
  std::optional<mcu::McuConsumer> mcu;
  std::optional<telemetry::BlockTelemetry> run_tel;
  // The analytic run engine, present whenever the scenario is eligible
  // (core/fast_path.hpp); the scheduler then only keeps the clock. Absent,
  // the event-driven reference path (the DES oracle) runs the timeline.
  std::optional<FastPathEngine> engine;
  // Timestamp-error fold over the front-end's capture log. With history
  // off the log is folded and dropped after every advance and snapshot,
  // so it never outgrows one advance; finish() folds whatever is left.
  std::optional<analysis::RecordScorer> scorer;

  // Delivery-latency harvest (see run_scenario's original comment: every
  // word the MCU accepts appends decoded events; the gap between the
  // acceptance time and each event's reconstructed instant is the
  // batching latency RunResult reports).
  std::vector<double> latencies;
  std::size_t harvested{0};
  bool keep_history{true};

  // Streaming input buffer. pending[submitted..] are fed but not yet
  // submitted. pending[pending_head, submitted) are submitted and wait for
  // their launch in the engine, which reads them in place; on the DES path
  // submission hands events to the sender, so that range stays empty. The
  // head index avoids per-event pop-front; the buffer is compacted
  // whenever it drains or the dead prefix grows.
  aer::EventStream pending;
  std::size_t pending_head{0};
  std::size_t submitted{0};
  std::uint64_t fed_total{0};
  bool have_first_event{false};
  Time first_event_time{Time::zero()};
  Time last_event_time{Time::zero()};

  // The metrics grid, sampled by the session itself on either engine as
  // the timeline passes each point (core/fast_path.hpp). It starts with
  // the timeline.
  MetricsGrid grid;

  // Standing services (each owns at most one pending scheduler event,
  // which is exactly what snapshot() needs to account for quiescence).
  bool started{false};
  bool watchdog_enabled{false};
  Time watchdog_period{Time::zero()};
  bool watchdog_armed{false};
  Time watchdog_deadline{Time::zero()};
  int watchdog_suspect_ticks{0};
  std::uint64_t watchdog_suspect_handshakes{0};

  bool done{false};

  // dump_scenario(scenario), the snapshot's config fingerprint: dumped on
  // first use, then shared by every snapshot and restore.
  std::string config_text;

  const std::string& fingerprint() {
    if (config_text.empty()) config_text = dump_scenario(scenario);
    return config_text;
  }

  explicit Impl(const ScenarioConfig& s) : scenario{s} {
    scenario.validate();

    if (telemetry::compiled_in() && scenario.telemetry.any()) {
      owned_tel.emplace(scenario.telemetry);
      tel = &*owned_tel;
      tel->set_clock([this] { return sched.now(); });
      sched.set_telemetry(tel);  // components pick it up at construction
    }

    // An empty plan attaches no injector at all: the fault hooks stay
    // null and the run is bit-identical to one with no fault plumbing.
    if (scenario.faults.any()) injector.emplace(scenario.faults);
    faults = injector ? &*injector : nullptr;

    iface.emplace(sched, scenario.interface, faults);
    iface->aer_in().set_strict(scenario.strict_protocol);
    sender.emplace(sched, iface->aer_in(), scenario.sender);
    caviar.emplace(iface->aer_in());
    scorer.emplace(iface->tick_unit(), iface->saturation_span());
    mcu.emplace(iface->tick_unit(), iface->saturation_span() == Time::max()
                                        ? Time::zero()
                                        : iface->saturation_span());
    if (scenario.attach_mcu) {
      iface->on_i2s_word([this](aer::AetrWord w, Time t) {
        mcu->on_word(w, t);
        harvest(t);
      });
      mcu->attach_faults(faults);
    }

    // Blocks without a scheduler reference get the session explicitly.
    iface->fifo().attach_telemetry(tel);
    if (scenario.attach_mcu) mcu->attach_telemetry(tel);

    run_tel.emplace(tel, "runner");
    if (auto* m = run_tel->metrics()) {
      m->probe("power.avg_w", [this](Time at) {
        return iface->power_model().average_power_w(iface->activity_at(at));
      });
      if (faults != nullptr) {
        // The fault.* probes read the injector's counters — the same
        // fields RunResult::faults is copied from, so the two can never
        // disagree.
        m->probe("fault.injected", [this](Time) {
          return static_cast<double>(faults->counters().injected_total());
        });
        m->probe("fault.recovered", [this](Time) {
          return static_cast<double>(faults->counters().recovered_total());
        });
        m->probe("fault.watchdog_resyncs", [this](Time) {
          return static_cast<double>(faults->counters().watchdog_resyncs);
        });
        m->probe("fault.crc_rejected_words", [this](Time) {
          return static_cast<double>(faults->counters().crc_rejected_words);
        });
      }
      if (tel->options().metrics_window > Time::zero()) {
        grid.metrics = m;
        grid.pitch = tel->options().metrics_window;
      }
    }
    // Handshake watchdog: armed only when a wire fault that can wedge the
    // link is actually injected (and recovery is enabled), so fault-free
    // runs schedule nothing extra.
    watchdog_enabled = faults != nullptr && scenario.faults.aer.any() &&
                       scenario.faults.recovery.watchdog;
    watchdog_period = scenario.faults.recovery.watchdog_timeout;

    if (g_des_oracle_scopes == 0 && fast_path_eligible(scenario)) {
      engine.emplace(sched, *iface, scenario, grid);
    }
  }

  void harvest(Time now) {
    if (!keep_history) return;
    const auto& evs = mcu->events();
    for (; harvested < evs.size(); ++harvested) {
      latencies.push_back((now - evs[harvested].reconstructed_time).to_sec());
    }
  }

  /// Fold the capture log into the scorer and drop it. Every record is
  /// folded exactly once, in log order, so ErrorStats do not depend on
  /// how often this runs.
  void fold_records() {
    frontend::AerFrontEnd& fe = iface->front_end();
    scorer->add(fe.records());
    fe.clear_records();
  }

  [[nodiscard]] std::size_t buffered() const {
    return pending.size() - submitted;
  }

  void require_live(const char* op) const {
    if (done) {
      throw std::logic_error(std::string{"Session::"} + op +
                             ": session already finished");
    }
  }

  // --- standing services ---------------------------------------------------

  void arm_watchdog_at(Time at) {
    watchdog_armed = true;
    watchdog_deadline = at;
    sched.schedule_at(at, [this] {
      watchdog_armed = false;
      watchdog_check();
    });
  }

  /// Handshake watchdog (RecoveryConfig::watchdog): a periodic link check
  /// that repairs the two ways an injected wire fault can wedge the
  /// 4-phase handshake — a REQ edge the synchroniser missed (re-delivered
  /// to the front-end) and a lost ACK fall (ACK re-driven low). Both
  /// repairs demand the suspect state to persist across two consecutive
  /// ticks with no completed handshake in between, so the
  /// nanosecond-scale transients of a healthy handshake can never trip
  /// it. The timer re-arms only while the link or the sender still has
  /// work, so an idle run winds down naturally.
  void watchdog_check() {
    aer::AerChannel& ch = iface->aer_in();
    frontend::AerFrontEnd& fe = iface->front_end();
    const bool stuck_ack = ch.ack() && !ch.req() && !fe.in_flight();
    const bool lost_req = ch.req() && !ch.ack() && !fe.in_flight();
    if ((stuck_ack || lost_req) &&
        (watchdog_suspect_ticks == 0 ||
         ch.handshakes() == watchdog_suspect_handshakes)) {
      ++watchdog_suspect_ticks;
      if (watchdog_suspect_ticks == 1) {
        watchdog_suspect_handshakes = ch.handshakes();
      }
      if (watchdog_suspect_ticks >= 2) {
        watchdog_suspect_ticks = 0;
        if (stuck_ack) {
          // Phase 4 never completed: re-drive ACK low so the sender's
          // ack-fall observer finally fires and the stream resumes.
          ch.deassert_ack();
          ++faults->counters().ack_recoveries;
        } else if (fe.resync(ch.last_req_rise())) {
          // The wire still shows the (dropped or runt-aborted) request;
          // ground truth keeps the original REQ rise so the recovery
          // latency lands in the timestamp error where it belongs.
          ++faults->counters().watchdog_resyncs;
        }
      }
    } else {
      watchdog_suspect_ticks = 0;
    }
    if (sender->backlog() > 0 || ch.req() || ch.ack()) {
      arm_watchdog_at(sched.now() + watchdog_period);
    }
  }

  /// Start the timeline's services on its first use: the metrics grid
  /// from its first point (the clock reads zero until the first advance)
  /// and the handshake watchdog.
  void ensure_started() {
    if (started || done) return;
    started = true;
    grid.start();
    if (watchdog_enabled) arm_watchdog_at(sched.now() + watchdog_period);
  }

  /// Streaming upkeep after new input: a watchdog that wound down while
  /// the stream was idle comes back when more work arrives.
  void revive_watchdog() {
    if (started && watchdog_enabled && !watchdog_armed) {
      arm_watchdog_at(sched.now() + watchdog_period);
    }
  }

  /// The event-driven timeline through `t`: every event at or before it,
  /// each grid point sampled once the events at or before it have run.
  void run_des_until(Time t) {
    while (grid.next <= t) {
      sched.run_until(grid.next);
      grid.sample();
    }
    sched.run_until(t);
  }

  /// The event-driven timeline until no event is pending.
  void run_des() {
    while (sched.pending() > 0) run_des_until(sched.next_event_time());
  }

  // --- input ----------------------------------------------------------------

  [[nodiscard]] std::size_t room() const {
    const std::size_t cap = scenario.session.max_buffered_events;
    return buffered() >= cap ? 0 : cap - buffered();
  }

  bool feed(const aer::Event& ev) {
    require_live("feed");
    if (feed_run({&ev, 1}, room(), Time::max()) == 1) return true;
    if (ev.time > aer::kLatestEventTime) throw too_late("Session::feed");
    if (have_first_event && ev.time < last_event_time) {
      throw std::invalid_argument(
          "Session::feed: events must arrive in non-decreasing time order");
    }
    return false;  // the buffer is full
  }

  static std::invalid_argument too_late(const char* who) {
    return std::invalid_argument(
        std::string{who} + ": event time past aer::kLatestEventTime");
  }

  void feed_all(std::span<const aer::Event> events) {
    require_live("feed_all");
    const std::size_t n = feed_run(events, events.size(), Time::max());
    if (n == events.size()) return;
    if (events[n].time > aer::kLatestEventTime) {
      throw too_late("Session::feed_all");
    }
    throw std::invalid_argument(
        "Session::feed_all: events must arrive in non-decreasing time order");
  }

  /// The one append path: feed() is a one-event call capped at room().
  std::size_t feed_run(std::span<const aer::Event> events, std::size_t limit,
                       Time cut) {
    const std::size_t most = std::min(limit, events.size());
    if (most == 0) return 0;
    Time last = have_first_event ? last_event_time : events.front().time;
    // Whole blocks first, one branch each: a block in order whose last
    // event lies below both the cut and the latest time holds no stop. The
    // block that fails, and the tail, are walked event by event.
    constexpr std::size_t kBlock = 8;
    const Time below = std::min(cut, aer::kLatestEventTime + Time::ps(1));
    std::size_t n = 0;
    for (; n + kBlock <= most; n += kBlock) {
      Time prev = last;
      bool in_order = true;
#pragma GCC unroll 8
      for (std::size_t j = n; j < n + kBlock; ++j) {
        in_order &= prev <= events[j].time;
        prev = events[j].time;
      }
      if (!in_order || prev >= below) break;
      last = prev;
    }
    while (n < most) {
      const Time t = events[n].time;
      if (t < last || t > aer::kLatestEventTime) break;
      last = t;
      ++n;
      if (t >= cut) break;
    }
    if (n == 0) return 0;
    pending.insert(pending.end(), events.begin(),
                   events.begin() + static_cast<std::ptrdiff_t>(n));
    if (!have_first_event) {
      have_first_event = true;
      first_event_time = events.front().time;
    }
    last_event_time = last;
    fed_total += n;
    grid.extend(last, sched.now());
    revive_watchdog();
    return n;
  }

  /// Submit every buffered event with time <= t (Time::max(): all).
  void submit_upto(Time t) {
    // Every buffered event is at or before last_event_time.
    if (t >= last_event_time) {
      submitted = pending.size();
    } else {
      while (submitted < pending.size() && pending[submitted].time <= t) {
        ++submitted;
      }
    }
    if (engine) return;  // the engine launches straight from the buffer
    for (; pending_head < submitted; ++pending_head) {
      sender->submit(pending[pending_head]);
    }
    compact();
    // A watchdog that wound down while the link was idle must come back
    // before the newly submitted work runs, or a wedged handshake would
    // stall the stream with nobody left to repair it.
    if (watchdog_enabled && !watchdog_armed && sender->backlog() > 0) {
      arm_watchdog_at(sched.now() + watchdog_period);
    }
  }

  /// Submitted events the engine has not launched yet, in order.
  [[nodiscard]] std::span<const aer::Event> queued() const {
    return {pending.data() + pending_head, submitted - pending_head};
  }

  /// Drop the `n` queued events the engine just launched.
  void launched(std::size_t n) {
    pending_head += n;
    compact();
  }

  void compact() {
    if (pending_head == pending.size()) {
      pending.clear();
      pending_head = 0;
      submitted = 0;
    } else if (pending_head >= 4096 && pending_head * 2 >= pending.size()) {
      pending.erase(pending.begin(),
                    pending.begin() +
                        static_cast<std::ptrdiff_t>(pending_head));
      submitted -= pending_head;
      pending_head = 0;
    }
  }

  void advance_to(Time t) {
    require_live("advance_to");
    ensure_started();
    if (t < sched.now()) t = sched.now();
    submit_upto(t);
    if (engine) {
      launched(engine->run_to(t, queued()));
    } else {
      run_des_until(t);
    }
    if (!keep_history) fold_records();
  }

  // --- quiescence / snapshot ------------------------------------------------

  /// Pending scheduler events the session can account for: one per armed
  /// standing service plus the sender's next launch.
  [[nodiscard]] std::size_t standing_timers() {
    return (watchdog_armed ? 1u : 0u) + iface->drain_deadline_count() +
           (sender->launch_pending() ? 1u : 0u);
  }

  /// Quiescent: every pending scheduler event is a standing timer and no
  /// block holds an un-serializable in-flight transient.
  [[nodiscard]] bool quiescent() {
    return sched.pending() == standing_timers() &&
           !iface->front_end().in_flight() && !iface->i2s_master().draining() &&
           !iface->aer_in().runt_in_flight();
  }

  /// Drain to the nearest quiescent point. Every dispatch happens at
  /// exactly the time an uninterrupted run would have dispatched it, but
  /// now() ends up at the quiescent point — events fed afterwards with
  /// earlier timestamps are late arrivals (see Session::snapshot docs).
  void settle() {
    if (engine) {
      launched(engine->settle(queued()));
      return;
    }
    for (int i = 0; i < kMaxSettleIterations; ++i) {
      if (quiescent()) return;
      if (sched.pending() <= standing_timers()) {
        // Fewer pending events than armed standing timers: an arming
        // flag went stale, which is a bug, not a config problem.
        throw std::logic_error(
            "Session::snapshot: standing-timer accounting is inconsistent");
      }
      run_des_until(sched.next_event_time());
    }
    throw std::runtime_error(
        "Session::snapshot: system did not reach a quiescent point");
  }

  [[nodiscard]] std::vector<std::uint8_t> snapshot() {
    require_live("snapshot");
    settle();
    if (!keep_history) fold_records();

    BlobWriter w;
    w.raw(kSnapshotMagic, sizeof kSnapshotMagic);
    w.u32(kSnapshotVersion);
    w.str(fingerprint());
    w.b(tel != nullptr);
    w.b(faults != nullptr);
    w.b(engine.has_value());

    // Session-level stream position and lifecycle.
    w.b(started);
    w.b(keep_history);
    w.u64(fed_total);
    w.b(have_first_event);
    w.time(first_event_time);
    w.time(last_event_time);
    w.u64(pending.size() - pending_head);
    for (std::size_t i = pending_head; i < pending.size(); ++i) {
      w.u16(pending[i].address);
      w.time(pending[i].time);
    }
    w.u64(submitted - pending_head);

    // Standing services.
    w.b(watchdog_armed);
    w.time(watchdog_deadline);
    w.i64(watchdog_suspect_ticks);
    w.u64(watchdog_suspect_handshakes);

    // How many standing timers restore() will re-arm. Each re-arm draws a
    // fresh scheduler sequence number, so restore winds next_seq back by
    // this count first — after the canonical re-arms the counter lands
    // exactly where this run's did, keeping later blobs byte-identical.
    w.u64(standing_timers());

    // Scheduler clock (restored before anything re-arms, so every re-arm
    // lands at its original absolute time).
    const auto clk = sched.clock_state();
    w.time(clk.now);
    w.u64(clk.next_seq);
    w.u64(clk.processed);
    w.u64(clk.cancelled);

    if (engine) engine->save_state(w);
    if (faults != nullptr) faults->save_state(w);
    iface->save_state(w);
    sender->save_state(w);
    caviar->save_state(w);
    mcu->save_state(w);
    scorer->save_state(w);

    w.u64(latencies.size());
    for (const double v : latencies) w.f64(v);
    w.u64(harvested);

    if (tel != nullptr) tel->save_state(w);
    w.u32(util::crc32_bytes(w.bytes()));
    return std::move(w).take();
  }

  /// A restored time in [0, hi]. Event times stay within
  /// aer::kLatestEventTime, as feed() keeps them; the clock and timer
  /// deadlines run on past the latest event, by less than one config time
  /// (ScenarioConfig::kMaxTime), so the pipeline's own delays still add up
  /// to a Time.
  static Time time_upto(BlobReader& r, Time hi, const char* what) {
    const Time t = r.time();
    if (t < Time::zero() || t > hi) {
      throw std::runtime_error(std::string{"Session::restore: "} + what +
                               " out of range");
    }
    return t;
  }
  static constexpr Time kLatestDeadline =
      aer::kLatestEventTime + ScenarioConfig::kMaxTime;

  void restore(const std::vector<std::uint8_t>& blob) {
    require_live("restore");
    if (started || fed_total > 0) {
      throw std::logic_error(
          "Session::restore: requires a freshly constructed session");
    }

    if (blob.size() < kSnapshotHeaderBytes + kTrailerBytes) {
      throw std::runtime_error("Session::restore: truncated snapshot");
    }
    // Magic and version come first so a foreign file or an older format
    // gets a precise error; the checksum then guards every byte the
    // section parsers below will read.
    if (const std::string why = snapshot_header_error(blob); !why.empty()) {
      throw std::runtime_error("Session::restore: " + why);
    }
    const std::size_t body = blob.size() - kTrailerBytes;
    BlobReader r{blob.data() + kSnapshotHeaderBytes,
                 body - kSnapshotHeaderBytes};
    if (BlobReader{blob.data() + body, kTrailerBytes}.u32() !=
        util::crc32_bytes(blob.data(), body)) {
      throw std::runtime_error(
          "Session::restore: snapshot checksum mismatch (corrupted blob)");
    }
    if (r.str() != fingerprint()) {
      throw std::runtime_error(
          "Session::restore: scenario config does not match the snapshot's "
          "(diff the dump_scenario() texts to see how)");
    }
    if (r.b() != (tel != nullptr)) {
      throw std::runtime_error(
          "Session::restore: telemetry presence differs from the snapshot");
    }
    if (r.b() != (faults != nullptr)) {
      throw std::runtime_error(
          "Session::restore: fault-injector presence differs from snapshot");
    }
    if (r.b() != engine.has_value()) {  // the config text names no engine
      throw std::runtime_error(
          "Session::restore: run engine differs from the snapshot's");
    }

    started = r.b();
    keep_history = r.b();
    if (!keep_history) {
      sender->set_keep_sent(false);
      mcu->set_keep_events(false);
    }
    fed_total = r.u64();
    have_first_event = r.b();
    first_event_time = time_upto(r, aer::kLatestEventTime, "event time");
    last_event_time = time_upto(r, aer::kLatestEventTime, "event time");
    pending.clear();
    pending_head = 0;
    const std::uint64_t n_pending = r.count(2 + 8);  // u16 + time
    pending.reserve(n_pending);
    for (std::uint64_t i = 0; i < n_pending; ++i) {
      const std::uint16_t addr = r.u16();
      const Time t = time_upto(r, aer::kLatestEventTime, "event time");
      // submit_upto() relies on the buffer being ordered up to the last
      // event time.
      if (t > last_event_time ||
          (!pending.empty() && t < pending.back().time)) {
        throw std::runtime_error(
            "Session::restore: buffered events out of order");
      }
      pending.push_back(aer::Event{addr, t});
    }
    const std::uint64_t n_queued = r.u64();
    if (n_queued > n_pending || (n_queued > 0 && !engine)) {
      throw std::runtime_error("Session::restore: bad submitted-event count");
    }
    submitted = static_cast<std::size_t>(n_queued);

    const bool had_watchdog = r.b();
    const Time saved_watchdog_deadline =
        time_upto(r, kLatestDeadline, "clock or deadline");
    watchdog_suspect_ticks = static_cast<int>(r.i64());
    watchdog_suspect_handshakes = r.u64();

    const std::uint64_t rearm_count = r.u64();

    sim::Scheduler::ClockState clk;
    clk.now = time_upto(r, kLatestDeadline, "clock or deadline");
    // Wind the sequence counter back by the timers about to re-arm
    // (watchdog, drain deadlines, sender launch): their fresh allocations
    // then bring it back to the snapshotted value.
    clk.next_seq = r.u64() - rearm_count;
    clk.processed = r.u64();
    clk.cancelled = r.u64();
    sched.restore_clock_state(clk);
    if (engine) engine->restore_state(r);

    // A snapshot is taken where the timeline has sampled every grid point
    // up to the clock (and the last event) and none past it.
    const Time grid_until = have_first_event ? last_event_time : Time::ps(-1);
    if (started) {
      grid.resume(grid_until, clk.now);
    } else {
      grid.extend(grid_until, clk.now);
    }
    // Re-arm standing timers in a canonical order (watchdog, drain
    // deadlines, sender launch) so their sequence numbers — the
    // same-timestamp tie-break — are assigned deterministically.
    if (had_watchdog) arm_watchdog_at(saved_watchdog_deadline);

    if (faults != nullptr) faults->restore_state(r);
    iface->restore_state(r);
    sender->restore_state(r);
    caviar->restore_state(r);
    mcu->restore_state(r);
    scorer->restore_state(r);

    latencies.clear();
    const std::uint64_t n_lat = r.count(8);
    latencies.reserve(n_lat);
    for (std::uint64_t i = 0; i < n_lat; ++i) latencies.push_back(r.f64());
    harvested = r.u64();

    if (tel != nullptr) tel->restore_state(r);

    if (!r.done()) {
      throw std::runtime_error(
          "Session::restore: trailing bytes after snapshot payload");
    }
  }

  // --- completion -----------------------------------------------------------

  /// Run everything submitted to completion, then the final flush; the
  /// clock ends on the last activity instant.
  void run_out() {
    if (engine) {
      engine->run_out(queued());
      launched(submitted - pending_head);
      return;
    }
    run_des();
    if (scenario.final_flush && !iface->fifo().empty()) {
      iface->i2s_master().request_drain(sched.now());
      run_des();
    }
  }

  [[nodiscard]] RunResult finish() {
    require_live("finish");
    ensure_started();

    submit_upto(Time::max());
    run_out();
    // Cooldown so the power window reflects the post-stream idle too.
    sched.run_until(sched.now() + scenario.cooldown);
    // Flush any CRC-gated batch still pending on the MCU side.
    if (scenario.attach_mcu) {
      mcu->finish(sched.now());
      harvest(sched.now());
    }

    if (tel != nullptr) {
      // The runner span, written whole: from the first advance (at zero)
      // to the end of the run, with every event fed.
      run_tel->complete("run_scenario", Time::zero(), sched.now(),
                        {{"events", static_cast<double>(fed_total)}});
      if (tel->metrics_on()) tel->metrics().snapshot(sched.now());
      tel->write_artifacts();
    }

    RunResult r;
    r.activity = iface->activity();
    r.average_power_w = iface->average_power_w();
    r.breakdown = iface->power_breakdown();
    // Fold what is left of the capture log: all of it with history on,
    // the tail since the last advance with history off.
    scorer->add(iface->front_end().records());
    if (keep_history) r.records = iface->front_end().take_records();
    r.error = scorer->stats();
    r.decoded = mcu->take_events();
    r.delivered = mcu->decoder().decoded();
    r.delivery_latency_sec = std::move(latencies);
    r.events_in = fed_total;
    r.words_out = iface->i2s_master().words_sent();
    r.fifo_overflows = iface->fifo().overflows();
    r.batches = mcu->batches();
    r.handshakes = iface->aer_in().handshakes();
    // The engine computes the CAVIAR outcome arithmetically (the channel's
    // observers never see edges there).
    r.caviar_violations =
        engine ? engine->caviar_violations() : caviar->violation_count();
    r.protocol_violations = iface->aer_in().violations().size();
    if (faults != nullptr) r.faults = faults->counters();
    r.sim_end = sched.now();
    r.tick_unit = iface->tick_unit();
    r.saturation_span = iface->saturation_span();
    if (fed_total >= 2) {
      const double span = (last_event_time - first_event_time).to_sec();
      if (span > 0.0) {
        r.input_rate_hz = static_cast<double>(fed_total - 1) / span;
      }
    }
    if (scenario.energy_ledger) {
      // Post-hoc arithmetic over the counters gathered above — filling
      // the ledger cannot perturb the run or its fast-path eligibility.
      obs::LedgerInputs in;
      in.activity = r.activity;
      in.calibration = iface->power_model().calibration();
      in.tick_unit = r.tick_unit;
      in.words = r.words_out;
      in.batches = r.batches;
      in.events_in = r.events_in;
      in.delivered = scenario.attach_mcu ? r.delivered : r.words_out;
      in.buffer_dropped = r.fifo_overflows;
      in.include_mcu = scenario.attach_mcu;
      r.ledger = obs::EnergyLedger::from_run(in);
    }
    done = true;
    return r;
  }
};

Session::Session(const ScenarioConfig& scenario)
    : impl_{std::make_unique<Impl>(scenario)} {}

Session::~Session() = default;

bool Session::feed(const aer::Event& ev) {
  return impl_->feed(ev);
}

void Session::feed_all(std::span<const aer::Event> events) {
  impl_->feed_all(events);
}

std::size_t Session::feed_run(std::span<const aer::Event> events,
                              std::size_t limit, Time cut) {
  impl_->require_live("feed_run");
  return impl_->feed_run(events, limit, cut);
}

std::size_t Session::buffered() const { return impl_->buffered(); }

const std::string& Session::config_text() const {
  return impl_->fingerprint();
}

bool Session::backpressure() const { return room() == 0; }

std::size_t Session::room() const { return impl_->room(); }

std::optional<Time> Session::last_event_time() const {
  if (!impl_->have_first_event) return std::nullopt;
  return impl_->last_event_time;
}

std::uint64_t Session::events_fed() const { return impl_->fed_total; }

void Session::advance_to(Time t) { impl_->advance_to(t); }

Time Session::position() const { return impl_->sched.now(); }

std::vector<std::uint8_t> Session::snapshot() { return impl_->snapshot(); }

void Session::restore(const std::vector<std::uint8_t>& blob) {
  impl_->restore(blob);
}

RunResult Session::finish() { return impl_->finish(); }

bool Session::finished() const { return impl_->done; }

void Session::set_keep_history(bool keep) {
  impl_->keep_history = keep;
  impl_->sender->set_keep_sent(keep);
  impl_->mcu->set_keep_events(keep);
}

telemetry::TelemetrySession* Session::telemetry_session() {
  return impl_->tel;
}

AerToI2sInterface& Session::interface() { return *impl_->iface; }

sim::Scheduler& Session::scheduler() { return impl_->sched; }

}  // namespace aetr::core
