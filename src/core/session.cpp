#include "core/session.hpp"

#include <cstring>
#include <optional>
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
#include "util/profiler.hpp"

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

}  // namespace

struct Session::Impl {
  ScenarioConfig scenario;
  sim::Scheduler sched;

  std::optional<telemetry::TelemetrySession> owned_tel;
  telemetry::TelemetrySession* tel{nullptr};
  std::optional<fault::FaultInjector> injector;
  fault::FaultInjector* faults{nullptr};
  std::optional<AerToI2sInterface> iface;
  std::optional<aer::AerSender> sender;
  std::optional<aer::CaviarChecker> caviar;
  std::optional<mcu::McuConsumer> mcu;
  std::optional<telemetry::BlockTelemetry> run_tel;
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

  // Streaming input buffer: fed-but-not-yet-submitted events live in
  // pending[pending_head..]. The head index avoids per-event pop-front;
  // the buffer is compacted whenever it drains or the dead prefix grows.
  aer::EventStream pending;
  std::size_t pending_head{0};
  std::uint64_t fed_total{0};
  bool have_first_event{false};
  Time first_event_time{Time::zero()};
  Time last_event_time{Time::zero()};

  // Standing services (each owns at most one pending scheduler event,
  // which is exactly what snapshot() needs to account for quiescence).
  bool started{false};
  bool span_open{false};
  telemetry::TraceSession::Track runner_track{0};
  bool grid_enabled{false};
  Time grid_pitch{Time::zero()};
  bool grid_armed{false};
  Time grid_next{Time::zero()};
  bool watchdog_enabled{false};
  Time watchdog_period{Time::zero()};
  bool watchdog_armed{false};
  Time watchdog_deadline{Time::zero()};
  int watchdog_suspect_ticks{0};
  std::uint64_t watchdog_suspect_handshakes{0};

  /// True until the first advance_to()/restore(): the session's timeline
  /// has never been driven incrementally, so finish() may still replay
  /// the whole stream through the idle-skip fast path.
  bool virgin{true};
  bool done{false};

  explicit Impl(const ScenarioConfig& s) : scenario{s} {
    scenario.validate();

    // Resolve the run's telemetry session per the scenario's choice.
    switch (scenario.telemetry.mode()) {
      case TelemetryChoice::Mode::kBorrowed:
        tel = scenario.telemetry.session();
        break;
      case TelemetryChoice::Mode::kOwned:
        if (telemetry::compiled_in() && scenario.telemetry.options().any()) {
          owned_tel.emplace(scenario.telemetry.options());
          tel = &*owned_tel;
        }
        break;
      case TelemetryChoice::Mode::kOff:
        break;
    }
    if (tel != nullptr) {
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
      m->probe("sched.events_dispatched",
               [this] { return static_cast<double>(sched.processed()); });
      m->probe("sched.scheduled", [this] {
        return static_cast<double>(sched.stats().scheduled);
      });
      m->probe("sched.wheel_dispatches", [this] {
        return static_cast<double>(sched.stats().wheel_dispatches);
      });
      m->probe("sched.heap_dispatches", [this] {
        return static_cast<double>(sched.stats().heap_dispatches);
      });
      m->probe("sched.cascaded", [this] {
        return static_cast<double>(sched.stats().cascaded);
      });
      m->probe("sched.pending",
               [this] { return static_cast<double>(sched.pending()); });
      m->probe("power.avg_w", [this] { return iface->average_power_w(); });
      if (faults != nullptr) {
        // The fault.* probes read the injector's counters — the same
        // fields RunResult::faults is copied from, so the two can never
        // disagree.
        m->probe("fault.injected", [this] {
          return static_cast<double>(faults->counters().injected_total());
        });
        m->probe("fault.recovered", [this] {
          return static_cast<double>(faults->counters().recovered_total());
        });
        m->probe("fault.watchdog_resyncs", [this] {
          return static_cast<double>(faults->counters().watchdog_resyncs);
        });
        m->probe("fault.crc_rejected_words", [this] {
          return static_cast<double>(faults->counters().crc_rejected_words);
        });
      }
    }

    grid_enabled = tel != nullptr && tel->metrics_on();
    if (grid_enabled) grid_pitch = tel->options().metrics_window;
    // Handshake watchdog: armed only when a wire fault that can wedge the
    // link is actually injected (and recovery is enabled), so fault-free
    // runs schedule nothing extra.
    watchdog_enabled = faults != nullptr && scenario.faults.aer.any() &&
                       scenario.faults.recovery.watchdog;
    watchdog_period = scenario.faults.recovery.watchdog_timeout;
  }

  void harvest(Time now) {
    if (!keep_history) return;
    util::ProfScope prof{util::ProfSite::kHarvest};
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
    return pending.size() - pending_head;
  }

  void require_live(const char* op) const {
    if (done) {
      throw std::logic_error(std::string{"Session::"} + op +
                             ": session already finished");
    }
  }

  // --- standing services ---------------------------------------------------

  /// First sampling-grid point at (or, when `strictly_after`, strictly
  /// past) `t`. Grid points sit at integer multiples of the pitch,
  /// anchored at zero — the same ticks an uninterrupted batch run's
  /// self-rearming grid visits.
  [[nodiscard]] Time grid_point(Time t, bool strictly_after) const {
    if (grid_pitch <= Time::zero()) return t;
    const Time rem = t % grid_pitch;
    if (rem == Time::zero()) return strictly_after ? t + grid_pitch : t;
    return t - rem + grid_pitch;
  }

  /// Self-rearming snapshot tick: samples every registered probe on the
  /// metrics grid. Re-arms only up to the last fed event so the grid
  /// never extends the simulated timeline (RunResult must be
  /// telemetry-invariant).
  void arm_grid_at(Time at) {
    grid_armed = true;
    grid_next = at;
    sched.schedule_at(at, [this] {
      tel->metrics().snapshot(sched.now());
      const Time next = sched.now() + grid_pitch;
      if (next <= last_event_time) {
        arm_grid_at(next);
      } else {
        grid_armed = false;
      }
    });
  }

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

  /// Arm the session's standing services on first use of the timeline.
  /// Order matters for batch bit-identity: the pre-Session runner armed
  /// the metrics grid, then the watchdog, then opened the runner span, so
  /// their scheduler sequence numbers (the same-timestamp tie-break) must
  /// be claimed in that order here too.
  void ensure_started() {
    if (started || done) return;
    started = true;
    if (grid_enabled && fed_total > 0) {
      arm_grid_at(grid_point(sched.now(), /*strictly_after=*/false));
    }
    if (watchdog_enabled) arm_watchdog_at(sched.now() + watchdog_period);
    if (tel != nullptr && tel->trace_on()) {
      runner_track = tel->trace().track("runner");
      tel->trace().begin(runner_track, "run_scenario", sched.now(),
                         {{"events", static_cast<double>(fed_total)}});
      span_open = true;
    }
  }

  /// Streaming upkeep after new input: a standing service that wound
  /// down while the stream was idle comes back when more work arrives.
  void revive_services() {
    if (!started) return;
    if (grid_enabled && !grid_armed) {
      const Time at = grid_point(sched.now(), /*strictly_after=*/true);
      if (at <= last_event_time) arm_grid_at(at);
    }
    if (watchdog_enabled && !watchdog_armed) {
      arm_watchdog_at(sched.now() + watchdog_period);
    }
  }

  // --- input ----------------------------------------------------------------

  bool feed(const aer::Event& ev, bool unbounded) {
    require_live("feed");
    if (have_first_event && ev.time < last_event_time) {
      throw std::invalid_argument(
          "Session::feed: events must arrive in non-decreasing time order");
    }
    if (!unbounded && buffered() >= scenario.session.max_buffered_events) {
      return false;
    }
    pending.push_back(ev);
    if (!have_first_event) {
      have_first_event = true;
      first_event_time = ev.time;
    }
    last_event_time = ev.time;
    ++fed_total;
    revive_services();
    return true;
  }

  void submit_upto(Time t) {
    while (pending_head < pending.size() && pending[pending_head].time <= t) {
      sender->submit(pending[pending_head]);
      ++pending_head;
    }
    compact();
  }

  void submit_all() {
    for (; pending_head < pending.size(); ++pending_head) {
      sender->submit(pending[pending_head]);
    }
    compact();
  }

  void compact() {
    if (pending_head == pending.size()) {
      pending.clear();
      pending_head = 0;
    } else if (pending_head >= 4096 && pending_head * 2 >= pending.size()) {
      pending.erase(pending.begin(),
                    pending.begin() +
                        static_cast<std::ptrdiff_t>(pending_head));
      pending_head = 0;
    }
  }

  void advance_to(Time t) {
    require_live("advance_to");
    ensure_started();
    virgin = false;
    if (t < sched.now()) t = sched.now();
    submit_upto(t);
    // A watchdog that wound down while the link was idle must come back
    // before the newly submitted work runs, or a wedged handshake would
    // stall the stream with nobody left to repair it.
    if (watchdog_enabled && !watchdog_armed && sender->backlog() > 0) {
      arm_watchdog_at(sched.now() + watchdog_period);
    }
    sched.run_until(t);
    if (!keep_history) fold_records();
  }

  // --- quiescence / snapshot ------------------------------------------------

  /// Pending scheduler events the session can account for: one per armed
  /// standing service plus the sender's next launch.
  [[nodiscard]] std::size_t standing_timers() {
    return (grid_armed ? 1u : 0u) + (watchdog_armed ? 1u : 0u) +
           iface->drain_deadline_count() + (sender->launch_pending() ? 1u : 0u);
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
    for (int i = 0; i < kMaxSettleIterations; ++i) {
      if (quiescent()) return;
      if (sched.pending() <= standing_timers()) {
        // Fewer pending events than armed standing timers: an arming
        // flag went stale, which is a bug, not a config problem.
        throw std::logic_error(
            "Session::snapshot: standing-timer accounting is inconsistent");
      }
      sched.run_until(sched.next_event_time());
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
    w.str(dump_scenario(scenario));
    w.b(tel != nullptr);
    w.b(faults != nullptr);

    // Session-level stream position and lifecycle.
    w.b(started);
    w.b(span_open);
    w.b(keep_history);
    w.u64(fed_total);
    w.b(have_first_event);
    w.time(first_event_time);
    w.time(last_event_time);
    w.u64(buffered());
    for (std::size_t i = pending_head; i < pending.size(); ++i) {
      w.u16(pending[i].address);
      w.time(pending[i].time);
    }

    // Standing services.
    w.b(grid_armed);
    w.time(grid_next);
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
    w.u64(clk.heap_dispatches);
    w.u64(clk.cascaded);

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

  void restore(const std::vector<std::uint8_t>& blob) {
    require_live("restore");
    if (started || fed_total > 0 || !virgin) {
      throw std::logic_error(
          "Session::restore: requires a freshly constructed session");
    }

    if (blob.size() < sizeof kSnapshotMagic + 4 + kTrailerBytes) {
      throw std::runtime_error("Session::restore: truncated snapshot");
    }
    const std::size_t body = blob.size() - kTrailerBytes;
    BlobReader r{blob.data(), body};
    char magic[8];
    r.raw(magic, sizeof magic);
    if (std::memcmp(magic, kSnapshotMagic, sizeof magic) != 0) {
      throw std::runtime_error("Session::restore: not a session snapshot");
    }
    const std::uint32_t version = r.u32();
    if (version != kSnapshotVersion) {
      throw std::runtime_error("Session::restore: snapshot version " +
                               std::to_string(version) + " != supported " +
                               std::to_string(kSnapshotVersion));
    }
    // Magic and version come first so a foreign file or an older format
    // gets a precise error; the checksum then guards every byte the
    // section parsers below will read.
    if (BlobReader{blob.data() + body, kTrailerBytes}.u32() !=
        util::crc32_bytes(blob.data(), body)) {
      throw std::runtime_error(
          "Session::restore: snapshot checksum mismatch (corrupted blob)");
    }
    const std::string fingerprint = r.str();
    if (fingerprint != dump_scenario(scenario)) {
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

    started = r.b();
    span_open = r.b();
    keep_history = r.b();
    if (!keep_history) {
      sender->set_keep_sent(false);
      mcu->set_keep_events(false);
    }
    fed_total = r.u64();
    have_first_event = r.b();
    first_event_time = r.time();
    last_event_time = r.time();
    pending.clear();
    pending_head = 0;
    const std::uint64_t n_pending = r.u64();
    pending.reserve(n_pending);
    for (std::uint64_t i = 0; i < n_pending; ++i) {
      const std::uint16_t addr = r.u16();
      pending.push_back(aer::Event{addr, r.time()});
    }

    const bool had_grid = r.b();
    const Time saved_grid_next = r.time();
    const bool had_watchdog = r.b();
    const Time saved_watchdog_deadline = r.time();
    watchdog_suspect_ticks = static_cast<int>(r.i64());
    watchdog_suspect_handshakes = r.u64();

    const std::uint64_t rearm_count = r.u64();

    sim::Scheduler::ClockState clk;
    clk.now = r.time();
    // Wind the sequence counter back by the timers about to re-arm (grid,
    // watchdog, drain deadlines, sender launch): their fresh allocations
    // then bring it back to the snapshotted value.
    clk.next_seq = r.u64() - rearm_count;
    clk.processed = r.u64();
    clk.cancelled = r.u64();
    clk.heap_dispatches = r.u64();
    clk.cascaded = r.u64();
    sched.restore_clock_state(clk);

    // Re-arm standing timers in a canonical order (grid, watchdog, drain
    // deadlines, sender launch) so their sequence numbers — the
    // same-timestamp tie-break — are assigned deterministically.
    if (had_grid) arm_grid_at(saved_grid_next);
    if (had_watchdog) arm_watchdog_at(saved_watchdog_deadline);

    if (faults != nullptr) faults->restore_state(r);
    iface->restore_state(r);
    sender->restore_state(r);
    caviar->restore_state(r);
    mcu->restore_state(r);
    scorer->restore_state(r);

    latencies.clear();
    const std::uint64_t n_lat = r.u64();
    latencies.reserve(n_lat);
    for (std::uint64_t i = 0; i < n_lat; ++i) latencies.push_back(r.f64());
    harvested = r.u64();

    if (tel != nullptr) tel->restore_state(r);
    if (span_open && tel != nullptr && tel->trace_on()) {
      // Re-resolve the runner track after telemetry restore so finish()
      // closes the span on the same track the snapshot's begin used.
      runner_track = tel->trace().track("runner");
    }

    if (!r.done()) {
      throw std::runtime_error(
          "Session::restore: trailing bytes after snapshot payload");
    }
    virgin = false;
  }

  // --- completion -----------------------------------------------------------

  [[nodiscard]] RunResult finish() {
    require_live("finish");
    ensure_started();

    // Fault-free, unobserved, never-advanced runs replay analytically
    // (bit-identical — see core/fast_path.hpp); everything else takes the
    // reference DES path.
    std::optional<FastPathOutcome> fast;
    if (virgin && fast_path_eligible(scenario, tel != nullptr)) {
      fast = run_fast_path(sched, *iface, scenario, pending);
      pending_head = pending.size();
      compact();
    } else {
      submit_all();
      if (watchdog_enabled && !watchdog_armed && sender->backlog() > 0) {
        arm_watchdog_at(sched.now() + watchdog_period);
      }
      sched.run();
      if (scenario.final_flush && !iface->fifo().empty()) {
        iface->i2s_master().request_drain(sched.now());
        sched.run();
      }
    }
    // Cooldown so the power window reflects the post-stream idle too.
    sched.run_until(sched.now() + scenario.cooldown);
    // Flush any CRC-gated batch still pending on the MCU side.
    if (scenario.attach_mcu) {
      mcu->finish(sched.now());
      harvest(sched.now());
    }

    if (span_open) {
      tel->trace().end(runner_track, "run_scenario", sched.now());
      span_open = false;
    }
    if (tel != nullptr) {
      if (tel->metrics_on()) tel->metrics().snapshot(sched.now());
      // The clock closure captures this session's scheduler; detach it
      // before a harness-owned telemetry session outlives the run.
      tel->set_clock({});
    }
    if (owned_tel) owned_tel->write_artifacts();

    RunResult r;
    r.activity = iface->activity();
    r.average_power_w = iface->average_power_w();
    r.breakdown = iface->power_breakdown();
    // Fold what is left of the capture log: all of it with history on,
    // the tail since the last advance with history off.
    scorer->add(iface->front_end().records());
    if (keep_history) r.records = iface->front_end().records();
    r.error = scorer->stats();
    r.decoded = mcu->events();
    r.delivery_latency_sec = std::move(latencies);
    r.events_in = fed_total;
    r.words_out = iface->i2s_master().words_sent();
    r.fifo_overflows = iface->fifo().overflows();
    r.batches = mcu->batches();
    // The fast path computes the wire-level outcomes arithmetically (the
    // channel and its observers never see edges there).
    r.handshakes = fast ? fast->handshakes : iface->aer_in().handshakes();
    r.caviar_violations =
        fast ? fast->caviar_violations : caviar->violation_count();
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
      in.delivered = scenario.attach_mcu ? r.decoded.size() : r.words_out;
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
  return impl_->feed(ev, /*unbounded=*/false);
}

std::size_t Session::feed(const aer::EventStream& events) {
  std::size_t accepted = 0;
  for (const auto& ev : events) {
    if (!impl_->feed(ev, /*unbounded=*/false)) break;
    ++accepted;
  }
  return accepted;
}

void Session::feed_all(const aer::EventStream& events) {
  for (const auto& ev : events) impl_->feed(ev, /*unbounded=*/true);
}

std::size_t Session::buffered() const { return impl_->buffered(); }

bool Session::backpressure() const {
  return impl_->buffered() >= impl_->scenario.session.max_buffered_events;
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
