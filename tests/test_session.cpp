// core::Session: the incremental run API behind run_scenario().
//
// The load-bearing properties:
//   * streaming (feed / advance_to) without snapshots reproduces the batch
//     run exactly, at every advance schedule;
//   * the analytic engine and the event-driven oracle agree on every
//     (stream, feed/advance/snapshot schedule): same positions, same
//     refusals, and RunResults equal down to every record and latency bit.
//     Each streaming property below holds on both engines;
//   * a snapshot is a deterministic synchronization point: a fresh session
//     restored from the blob continues byte-identically to the session that
//     took it — including later snapshot blobs, byte for byte — at 25
//     randomized mid-stream points, with faults injected and telemetry on;
//   * with history off the capture log is folded away as the run goes:
//     snapshots stay the size of the input buffer and the error stats
//     match the history-on run bitwise;
//   * the batch entry point's chunk loop (feed 4096 events, advance to the
//     last one, repeat) equals feeding the whole stream at once, traces and
//     metrics included;
//   * history off changes no aggregate: the ledger and the summary match
//     the history-on run, and run_scenario_totals() matches run_scenario()
//     in every aggregate field, which pulls its stimulus from the source
//     exactly as gen::take() would;
//   * backpressure, feed ordering, and restore rejection (including a
//     corrupted byte anywhere in the blob) behave as documented in
//     core/session.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/error.hpp"
#include "core/fast_path.hpp"
#include "core/ingest.hpp"
#include "core/scenario.hpp"
#include "core/session.hpp"
#include "core/summary.hpp"
#include "fault/fault_plan.hpp"
#include "gen/sources.hpp"
#include "obs/ledger.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc32.hpp"

namespace {

using namespace aetr;

aer::EventStream make_stream(std::size_t n, std::uint64_t seed) {
  gen::PoissonSource source{100e3, 256, seed};
  return gen::take(source, n);
}

core::ScenarioConfig faulty_scenario() {
  core::ScenarioConfig scenario;
  scenario.faults = fault::scaled_plan(0.3, 42);
  telemetry::SessionOptions tel;
  tel.metrics = true;  // probes + snapshot grid; no artifact paths
  scenario.telemetry = tel;
  return scenario;
}

/// The two run engines, named for failure messages: the analytic engine
/// and the event-driven oracle (a Session built under core::DesOracleScope).
constexpr bool kEngines[] = {true, false};

std::string engine_name(bool fast) { return fast ? "engine" : "DES"; }

std::unique_ptr<core::Session> make_session(const core::ScenarioConfig& sc,
                                            bool fast) {
  const core::DesOracleScope oracle{!fast};
  return std::make_unique<core::Session>(sc);
}

void expect_equal(const core::RunResult& a, const core::RunResult& b,
                  const std::string& what) {
  EXPECT_EQ(a.events_in, b.events_in) << what;
  EXPECT_EQ(a.words_out, b.words_out) << what;
  EXPECT_EQ(a.handshakes, b.handshakes) << what;
  EXPECT_EQ(a.caviar_violations, b.caviar_violations) << what;
  EXPECT_EQ(a.protocol_violations, b.protocol_violations) << what;
  EXPECT_EQ(a.fifo_overflows, b.fifo_overflows) << what;
  EXPECT_EQ(a.batches, b.batches) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.sim_end.count_ps(), b.sim_end.count_ps()) << what;
  EXPECT_EQ(a.average_power_w, b.average_power_w) << what;
  EXPECT_EQ(a.error.events, b.error.events) << what;
  EXPECT_EQ(a.error.mean_rel_error(), b.error.mean_rel_error()) << what;
  EXPECT_EQ(a.faults.injected_total(), b.faults.injected_total()) << what;
  EXPECT_EQ(a.faults.recovered_total(), b.faults.recovered_total()) << what;
  EXPECT_EQ(a.faults.watchdog_resyncs, b.faults.watchdog_resyncs) << what;
  EXPECT_EQ(a.faults.crc_rejected_words, b.faults.crc_rejected_words) << what;
}

// --- streaming == batch ------------------------------------------------------

// advance_to() at any mid-stream point is composition-transparent: the
// final result matches feeding the whole stream and finishing in one go.
TEST(Session, AdvanceScheduleIsTransparent) {
  for (const bool fast : kEngines) {
    const core::DesOracleScope oracle{!fast};
    const core::ScenarioConfig scenario;
    const aer::EventStream events = make_stream(3000, 7);
    core::Session batch{scenario};
    batch.feed_all(events);
    const core::RunResult ref = batch.finish();
    const Time end = events.back().time;
    for (int k = 1; k <= 7; ++k) {
      const Time at = Time::ps(end.count_ps() * k / 8);
      core::Session s{scenario};
      s.feed_all(events);
      s.advance_to(at);
      expect_equal(s.finish(), ref,
                   engine_name(fast) + ": advance at k=" + std::to_string(k));
    }
  }
}

// Per-event feeding with interleaved advances (the service-mode pattern,
// minus snapshots) also reproduces the batch run exactly.
TEST(Session, StreamedFeedMatchesBatch) {
  for (const bool fast : kEngines) {
    const core::DesOracleScope oracle{!fast};
    const core::ScenarioConfig scenario;
    const aer::EventStream events = make_stream(3000, 7);
    core::Session batch{scenario};
    batch.feed_all(events);
    const core::RunResult ref = batch.finish();

    core::Session s{scenario};
    std::size_t i = 0;
    for (const auto& ev : events) {
      ASSERT_TRUE(s.feed(ev));
      if (++i % 64 == 0) s.advance_to(ev.time);
    }
    expect_equal(s.finish(), ref, engine_name(fast) + ": streamed feed");
  }
}

// --- snapshot / restore ------------------------------------------------------

// The core property, at `points` randomized mid-stream snapshot points:
// restore the blob into a fresh session, replay the rest of the stream,
// and the continuation is byte-identical to the session that took the
// snapshot — checked via a second snapshot at a fixed later checkpoint
// (compared byte for byte) and the final RunResult.
void check_kill_resume(const core::ScenarioConfig& scenario, int points,
                       bool keep_history = true) {
  const aer::EventStream events = make_stream(2000, 11);
  const Time end = events.back().time;
  const Time checkpoint = Time::ps(end.count_ps() * 9 / 10);
  std::mt19937_64 rng{0xA5E7u};
  std::uniform_int_distribution<std::int64_t> pick{end.count_ps() / 20,
                                                   end.count_ps() * 4 / 5};
  for (int p = 0; p < points; ++p) {
    const Time at = Time::ps(pick(rng));

    // Reference: one session that snapshots mid-stream and keeps going.
    core::Session ref{scenario};
    ref.set_keep_history(keep_history);
    std::vector<std::uint8_t> blob;
    std::vector<std::uint8_t> ref_checkpoint;
    std::uint64_t fed_at_snapshot = 0;
    for (const auto& ev : events) {
      if (blob.empty() && ev.time >= at) {
        ref.advance_to(at);
        blob = ref.snapshot();
        fed_at_snapshot = ref.events_fed();
      }
      if (ref_checkpoint.empty() && ev.time >= checkpoint) {
        ref.advance_to(checkpoint);
        ref_checkpoint = ref.snapshot();
      }
      ASSERT_TRUE(ref.feed(ev));
    }
    ASSERT_FALSE(blob.empty());
    ASSERT_FALSE(ref_checkpoint.empty());
    const core::RunResult a = ref.finish();

    // Resumed: a fresh session restored from the blob, fed the remainder.
    core::Session res{scenario};
    res.set_keep_history(keep_history);
    res.restore(blob);
    ASSERT_EQ(res.events_fed(), fed_at_snapshot);
    std::vector<std::uint8_t> res_checkpoint;
    for (std::size_t i = fed_at_snapshot; i < events.size(); ++i) {
      if (res_checkpoint.empty() && events[i].time >= checkpoint) {
        res.advance_to(checkpoint);
        res_checkpoint = res.snapshot();
      }
      ASSERT_TRUE(res.feed(events[i]));
    }
    const core::RunResult b = res.finish();

    const std::string what = "snapshot at " + std::to_string(at.count_ps()) +
                             " ps (point " + std::to_string(p) + ")";
    EXPECT_EQ(ref_checkpoint, res_checkpoint)
        << what << ": checkpoint blobs differ";
    expect_equal(a, b, what);
  }
}

TEST(Session, KillResumeByteIdentical25Points) {
  for (const bool fast : kEngines) {
    SCOPED_TRACE(engine_name(fast));
    const core::DesOracleScope oracle{!fast};
    check_kill_resume({}, 25);
  }
}

TEST(Session, KillResumeByteIdenticalWithFaultsAndTelemetry) {
  check_kill_resume(faulty_scenario(), 25);
}

TEST(Session, KillResumeByteIdenticalWithoutHistory) {
  for (const bool fast : kEngines) {
    SCOPED_TRACE(engine_name(fast));
    const core::DesOracleScope oracle{!fast};
    check_kill_resume({}, 25, /*keep_history=*/false);
  }
}

// --- engine equivalence ------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_ledger(const obs::EnergyLedger& a, const obs::EnergyLedger& b,
                        const std::string& what) {
  EXPECT_EQ(a.enabled, b.enabled) << what;
  EXPECT_EQ(bits(a.window_sec), bits(b.window_sec)) << what;
  for (std::size_t i = 0; i < a.stage_energy_j.size(); ++i) {
    EXPECT_EQ(bits(a.stage_energy_j[i]), bits(b.stage_energy_j[i]))
        << what << ", stage " << i;
  }
  for (std::size_t i = 0; i < a.state_sec.size(); ++i) {
    EXPECT_EQ(bits(a.state_sec[i]), bits(b.state_sec[i]))
        << what << ", state " << i;
  }
  for (std::size_t i = 0; i < a.outcome_events.size(); ++i) {
    EXPECT_EQ(a.outcome_events[i], b.outcome_events[i])
        << what << ", outcome " << i;
    EXPECT_EQ(bits(a.outcome_energy_j[i]), bits(b.outcome_energy_j[i]))
        << what << ", outcome " << i;
  }
}

/// Every aggregate RunResult field, bit for bit: everything but the three
/// per-event logs (records, decoded, delivery_latency_sec).
void expect_same_totals(const core::RunResult& a, const core::RunResult& b,
                        const std::string& what) {
  expect_equal(a, b, what);
  EXPECT_EQ(core::run_summary_text(a), core::run_summary_text(b)) << what;
  EXPECT_EQ(a.activity.window, b.activity.window) << what;
  EXPECT_EQ(a.activity.osc_awake, b.activity.osc_awake) << what;
  EXPECT_EQ(a.activity.sampling_cycles, b.activity.sampling_cycles) << what;
  EXPECT_EQ(a.activity.events, b.activity.events) << what;
  EXPECT_EQ(a.activity.fifo_writes, b.activity.fifo_writes) << what;
  EXPECT_EQ(a.activity.fifo_reads, b.activity.fifo_reads) << what;
  EXPECT_EQ(a.activity.i2s_bits, b.activity.i2s_bits) << what;
  EXPECT_EQ(a.activity.spi_bits, b.activity.spi_bits) << what;
  EXPECT_EQ(a.activity.wakeups, b.activity.wakeups) << what;
  EXPECT_EQ(bits(a.average_power_w), bits(b.average_power_w)) << what;
  for (const auto field :
       {&power::PowerBreakdown::static_w, &power::PowerBreakdown::osc_domain_w,
        &power::PowerBreakdown::sampling_w, &power::PowerBreakdown::events_w,
        &power::PowerBreakdown::fifo_w, &power::PowerBreakdown::i2s_w,
        &power::PowerBreakdown::spi_w, &power::PowerBreakdown::wakeup_w}) {
    EXPECT_EQ(bits(a.breakdown.*field), bits(b.breakdown.*field)) << what;
  }
  const auto ra = a.error.rel_error.state();
  const auto rb = b.error.rel_error.state();
  EXPECT_EQ(ra.n, rb.n) << what;
  EXPECT_EQ(bits(ra.mean), bits(rb.mean)) << what;
  EXPECT_EQ(bits(ra.m2), bits(rb.m2)) << what;
  EXPECT_EQ(bits(ra.min), bits(rb.min)) << what;
  EXPECT_EQ(bits(ra.max), bits(rb.max)) << what;
  EXPECT_EQ(a.error.saturated, b.error.saturated) << what;
  EXPECT_EQ(a.error.sub_nyquist, b.error.sub_nyquist) << what;
  EXPECT_EQ(bits(a.error.abs_err_sec), bits(b.error.abs_err_sec)) << what;
  EXPECT_EQ(bits(a.error.true_sec), bits(b.error.true_sec)) << what;
  EXPECT_EQ(bits(a.error.abs_err_unsat_sec), bits(b.error.abs_err_unsat_sec))
      << what;
  EXPECT_EQ(bits(a.error.true_unsat_sec), bits(b.error.true_unsat_sec))
      << what;
  // FaultCounters is a plain block of u64 counters.
  EXPECT_EQ(std::memcmp(&a.faults, &b.faults, sizeof a.faults), 0) << what;
  expect_same_ledger(a.ledger, b.ledger, what);
  EXPECT_EQ(bits(a.input_rate_hz), bits(b.input_rate_hz)) << what;
  EXPECT_EQ(a.tick_unit, b.tick_unit) << what;
  EXPECT_EQ(a.saturation_span, b.saturation_span) << what;
}

/// Every observable RunResult field, bit for bit: the aggregates, and each
/// capture record, decoded event and latency.
void expect_identical(const core::RunResult& a, const core::RunResult& b,
                      const std::string& what) {
  expect_same_totals(a, b, what);
  ASSERT_EQ(a.records.size(), b.records.size()) << what;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_EQ(a.records[i].request.time, b.records[i].request.time)
        << what << ", record " << i;
    ASSERT_EQ(a.records[i].sample_edge, b.records[i].sample_edge)
        << what << ", record " << i;
    ASSERT_EQ(a.records[i].word.raw(), b.records[i].word.raw())
        << what << ", record " << i;
  }
  ASSERT_EQ(a.decoded.size(), b.decoded.size()) << what;
  for (std::size_t i = 0; i < a.decoded.size(); ++i) {
    ASSERT_EQ(a.decoded[i].reconstructed_time, b.decoded[i].reconstructed_time)
        << what << ", decoded " << i;
    ASSERT_EQ(a.decoded[i].address, b.decoded[i].address)
        << what << ", decoded " << i;
  }
  ASSERT_EQ(a.delivery_latency_sec.size(), b.delivery_latency_sec.size())
      << what;
  for (std::size_t i = 0; i < a.delivery_latency_sec.size(); ++i) {
    ASSERT_EQ(bits(a.delivery_latency_sec[i]), bits(b.delivery_latency_sec[i]))
        << what << ", latency " << i;
  }
}

/// A fast-path-eligible scenario with randomised corners: tiny buffers and
/// batch thresholds (so snapshots land inside drains), single-batch
/// drains, a small overflowing FIFO, metastability, no MCU, no flush, and
/// back-to-back launches with no post-handshake gap.
core::ScenarioConfig random_scenario(std::mt19937_64& rng) {
  const auto coin = [&rng] { return (rng() & 1u) != 0; };
  const auto pick = [&rng](std::initializer_list<std::size_t> xs) {
    return *(xs.begin() + static_cast<std::ptrdiff_t>(rng() % xs.size()));
  };
  core::ScenarioConfig sc;
  sc.session.max_buffered_events = pick({3, 16, 64, 1024});
  sc.interface.fifo.batch_threshold = pick({1, 4, 32, 1024});
  if (coin()) {
    sc.interface.fifo.capacity_words = 48;
    sc.interface.fifo.batch_threshold =
        std::min<std::size_t>(sc.interface.fifo.batch_threshold, 40);
    if (coin()) {
      sc.interface.fifo.overflow_policy = buffer::OverflowPolicy::kDropOldest;
    }
  }
  if (coin()) sc.interface.i2s.drain_until_empty = false;
  if (coin()) sc.interface.front_end.metastability_prob = 0.25;
  if (coin()) sc.interface.clock.n_div = 2;
  if ((rng() % 4) == 0) sc.final_flush = false;
  if ((rng() % 4) == 0) sc.attach_mcu = false;
  if ((rng() % 4) == 0) sc.sender.min_gap = Time::zero();
  return sc;
}

/// One session per engine, driven through the same calls; every call must
/// leave both at the same position with the same input buffered.
struct Lockstep {
  core::ScenarioConfig scenario;
  std::unique_ptr<core::Session> fast;
  std::unique_ptr<core::Session> des;

  explicit Lockstep(const core::ScenarioConfig& sc)
      : scenario{sc},
        fast{make_session(sc, true)},
        des{make_session(sc, false)} {}

  void check(const std::string& what) const {
    ASSERT_EQ(fast->position(), des->position()) << what;
    ASSERT_EQ(fast->buffered(), des->buffered()) << what;
    ASSERT_EQ(fast->events_fed(), des->events_fed()) << what;
  }
  void advance_to(Time t) {
    fast->advance_to(t);
    des->advance_to(t);
    check("advance_to(" + std::to_string(t.count_ps()) + " ps)");
  }
  /// Snapshot both; with `resume`, continue on fresh sessions restored
  /// from the blobs, as a killed process would.
  void snapshot(bool resume) {
    const std::vector<std::uint8_t> fb = fast->snapshot();
    const std::vector<std::uint8_t> db = des->snapshot();
    check("snapshot");
    if (!resume) return;
    fast = make_session(scenario, true);
    des = make_session(scenario, false);
    fast->restore(fb);
    des->restore(db);
    check("restore");
  }
  bool feed(const aer::Event& ev) {
    const bool f = fast->feed(ev);
    const bool d = des->feed(ev);
    EXPECT_EQ(f, d) << "feed at " << ev.time.count_ps() << " ps";
    return f && d;
  }
};

// The analytic engine reproduces the event-driven oracle under streaming,
// not just in batch: a snapshot's settle point, a late arrival's launch
// floor, and the final flush's instant all depend on the call schedule,
// and each randomized schedule below mixes backpressure refusals,
// advance_to() behind, inside and past position(), back-to-back
// snapshots, a snapshot before the first feed, resumes from a blob, and
// events fed after a settle whose timestamps fall inside the settled
// window.
TEST(Session, StreamingEnginesAgree) {
  std::mt19937_64 rng{0x5E77u};
  for (int schedule = 0; schedule < 30; ++schedule) {
    const core::ScenarioConfig scenario = random_scenario(rng);
    ASSERT_TRUE(core::fast_path_eligible(scenario));
    const double rate =
        std::initializer_list<double>{2e3, 5e4, 3e5, 8e5}.begin()[rng() % 4];
    gen::PoissonSource source{rate, 256, rng()};
    const aer::EventStream events = gen::take(source, 1500);
    const auto mean_gap_ps = static_cast<std::int64_t>(1e12 / rate);
    const std::string what = "schedule " + std::to_string(schedule);
    SCOPED_TRACE(what);

    Lockstep run{scenario};
    const bool history = (rng() % 4) != 0;
    run.fast->set_keep_history(history);
    run.des->set_keep_history(history);
    if ((rng() & 1u) != 0) run.snapshot(false);  // before the first feed
    for (const aer::Event& ev : events) {
      const Time pos = run.fast->position();
      const std::uint64_t op = rng() % 100;
      if (op < 6) {  // behind position(): clamped, submits late arrivals
        run.advance_to(Time::ps(pos.count_ps() -
                                static_cast<std::int64_t>(rng() % 1000)));
      } else if (op < 14 && ev.time > pos) {  // inside (position, ev.time]
        run.advance_to(Time::ps(
            pos.count_ps() + 1 +
            static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(
                                                  (ev.time - pos).count_ps()))));
      } else if (op < 20) {  // past the next events: they arrive late
        run.advance_to(ev.time +
                       Time::ps(static_cast<std::int64_t>(rng() % 4) *
                                mean_gap_ps));
      } else if (op < 28) {
        run.snapshot(/*resume=*/rng() % 4 == 0);
        if (rng() % 3 == 0) run.snapshot(false);  // back to back
      }
      if (HasFatalFailure()) return;
      while (!run.feed(ev)) {
        if (rng() % 3 == 0) run.snapshot(false);
        run.advance_to(ev.time);
        if (HasFatalFailure()) return;
      }
    }
    const core::RunResult a = run.fast->finish();
    const core::RunResult b = run.des->finish();
    expect_identical(a, b, what);
    EXPECT_EQ(a.events_in, events.size()) << what;
  }
}

// --- history off -------------------------------------------------------------

/// The service-mode pattern: bounded feeding with backpressure advances,
/// plus a snapshot whenever the stream crosses a multiple of `every`.
core::RunResult run_streamed(const core::ScenarioConfig& scenario,
                             const aer::EventStream& events, bool keep_history,
                             Time every) {
  core::Session s{scenario};
  s.set_keep_history(keep_history);
  Time next = every;
  for (const auto& ev : events) {
    if (ev.time >= next) {
      s.advance_to(next);
      (void)s.snapshot();
      while (next <= ev.time) next += every;
    }
    while (!s.feed(ev)) s.advance_to(ev.time);
  }
  return s.finish();
}

// Dropping the capture log loses nothing from the timestamp-error stats:
// the history-off run folds each chunk as it goes and ends bitwise equal
// to the history-on run that scores the whole log at finish().
TEST(Session, HistoryOffKeepsErrorStatsBitwise) {
  const std::pair<core::ScenarioConfig, bool> runs[] = {
      {{}, true}, {{}, false}, {faulty_scenario(), false}};
  for (const auto& [base, fast] : runs) {
    const core::DesOracleScope oracle{!fast};
    core::ScenarioConfig scenario = base;
    scenario.session.max_buffered_events = 256;
    const aer::EventStream events = make_stream(5000, 17);
    const Time every = Time::ms(3);
    const core::RunResult on = run_streamed(scenario, events, true, every);
    const core::RunResult off = run_streamed(scenario, events, false, every);
    EXPECT_EQ(on.records.size(), events.size());
    EXPECT_TRUE(off.records.empty());
    EXPECT_TRUE(off.decoded.empty());
    const analysis::ErrorStats& a = on.error;
    const analysis::ErrorStats& b = off.error;
    const auto ra = a.rel_error.state();
    const auto rb = b.rel_error.state();
    EXPECT_EQ(ra.n, rb.n);
    EXPECT_EQ(bits(ra.mean), bits(rb.mean));
    EXPECT_EQ(bits(ra.m2), bits(rb.m2));
    EXPECT_EQ(bits(ra.min), bits(rb.min));
    EXPECT_EQ(bits(ra.max), bits(rb.max));
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.saturated, b.saturated);
    EXPECT_EQ(a.sub_nyquist, b.sub_nyquist);
    EXPECT_EQ(bits(a.abs_err_sec), bits(b.abs_err_sec));
    EXPECT_EQ(bits(a.true_sec), bits(b.true_sec));
    EXPECT_EQ(bits(a.abs_err_unsat_sec), bits(b.abs_err_unsat_sec));
    EXPECT_EQ(bits(a.true_unsat_sec), bits(b.true_unsat_sec));
    EXPECT_EQ(on.caviar_violations, off.caviar_violations);
    EXPECT_EQ(on.words_out, off.words_out);
  }
}

TEST(Session, HistoryOffDropsCaptureLogAfterAdvance) {
  for (const bool fast : kEngines) {
    const aer::EventStream events = make_stream(500, 19);
    const core::DesOracleScope oracle{!fast};
    core::Session s{core::ScenarioConfig{}};
    s.set_keep_history(false);
    s.feed_all(events);
    s.advance_to(events[events.size() / 2].time);
    EXPECT_GT(s.interface().front_end().events(), 0u) << engine_name(fast);
    EXPECT_TRUE(s.interface().front_end().records().empty())
        << engine_name(fast);
  }
}

// With history off a snapshot holds the buffered input plus constant-size
// state: late in the stream it is no bigger than early on, give or take
// what is buffered at each point — events the session has not submitted
// yet (10 blob bytes apiece) and words waiting in the FIFO (4 apiece).
void check_snapshot_size_is_flat(core::ScenarioConfig scenario) {
  scenario.session.max_buffered_events = 512;
  const aer::EventStream events = make_stream(20000, 23);
  const Time end = events.back().time;
  const Time early = Time::ps(end.count_ps() / 10);
  const Time late = Time::ps(end.count_ps() * 9 / 10);
  core::Session s{scenario};
  s.set_keep_history(false);
  std::vector<std::uint8_t> early_blob, late_blob;
  std::size_t early_buffer_bytes = 0, late_buffer_bytes = 0;
  const auto buffered_bytes = [&s] {
    return 10 * s.buffered() + 4 * s.interface().fifo().size();
  };
  for (const auto& ev : events) {
    while (!s.feed(ev)) s.advance_to(ev.time);
    if (early_blob.empty() && ev.time >= early) {
      s.advance_to(early);
      early_blob = s.snapshot();
      early_buffer_bytes = buffered_bytes();
    }
    if (late_blob.empty() && ev.time >= late) {
      s.advance_to(late);
      late_blob = s.snapshot();
      late_buffer_bytes = buffered_bytes();
    }
  }
  ASSERT_FALSE(early_blob.empty());
  ASSERT_FALSE(late_blob.empty());
  const std::size_t buffer_bytes =
      std::max(early_buffer_bytes, late_buffer_bytes);
  const std::size_t lo = std::min(early_blob.size(), late_blob.size());
  const std::size_t hi = std::max(early_blob.size(), late_blob.size());
  EXPECT_LE(hi - lo, buffer_bytes)
      << "early " << early_blob.size() << " B, late " << late_blob.size()
      << " B";
  (void)s.finish();
}

TEST(Session, HistoryOffSnapshotSizeIsFlat) {
  for (const bool fast : kEngines) {
    SCOPED_TRACE(engine_name(fast));
    const core::DesOracleScope oracle{!fast};
    check_snapshot_size_is_flat({});
  }
}

// Every byte of a blob is covered: the magic and version by their own
// checks, everything else by the CRC-32 trailer. No single corrupted byte
// may crash restore() or slip through it.
void check_restore_rejects_every_corrupted_byte(
    const core::ScenarioConfig& scenario) {
  const aer::EventStream events = make_stream(300, 29);
  core::Session s{scenario};
  s.set_keep_history(false);
  s.feed_all(events);
  s.advance_to(events[events.size() / 2].time);
  const std::vector<std::uint8_t> blob = s.snapshot();
  {
    core::Session intact{scenario};
    EXPECT_NO_THROW(intact.restore(blob));
  }
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::vector<std::uint8_t> bad = blob;
    bad[i] ^= 0xFF;
    core::Session fresh{scenario};
    EXPECT_THROW(fresh.restore(bad), std::runtime_error) << "byte " << i;
  }
}

TEST(Session, RestoreRejectsEveryCorruptedByte) {
  for (const bool fast : kEngines) {
    SCOPED_TRACE(engine_name(fast));
    const core::DesOracleScope oracle{!fast};
    check_restore_rejects_every_corrupted_byte({});
  }
}

// A blob of the previous layout names both versions instead of failing
// somewhere inside a section parser.
TEST(Session, PreviousSnapshotVersionGetsVersionError) {
  // Version 6 dropped the metrics grid's and the runner span's fields, so
  // a version 5 blob would misparse behind a matching fingerprint; the
  // header check names the versions first.
  static_assert(core::Session::kSnapshotVersion == 6);
  core::Session s{core::ScenarioConfig{}};
  std::vector<std::uint8_t> blob = s.snapshot();
  constexpr std::uint32_t kOld = 5;
  for (std::size_t i = 0; i < 4; ++i) {  // u32 LE right after the magic
    blob[8 + i] = static_cast<std::uint8_t>(kOld >> (8 * i));
  }
  core::Session fresh{core::ScenarioConfig{}};
  try {
    fresh.restore(blob);
    FAIL() << "restore accepted a version " << kOld << " blob";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(
                  "snapshot version " + std::to_string(kOld) +
                  " != supported " +
                  std::to_string(core::Session::kSnapshotVersion)),
              std::string::npos)
        << e.what();
  }
}

// Two sessions driven through the identical feed/advance/snapshot schedule
// produce identical blobs and results: the run is a deterministic function
// of (stream, snapshot schedule).
void check_snapshot_schedule_is_deterministic(
    const core::ScenarioConfig& scenario) {
  const aer::EventStream events = make_stream(1500, 3);
  const Time at = Time::ps(events.back().time.count_ps() / 2);
  auto run = [&](std::vector<std::uint8_t>& blob) {
    core::Session s{scenario};
    for (const auto& ev : events) {
      if (blob.empty() && ev.time >= at) {
        s.advance_to(at);
        blob = s.snapshot();
      }
      EXPECT_TRUE(s.feed(ev));
    }
    return s.finish();
  };
  std::vector<std::uint8_t> blob1, blob2;
  const core::RunResult r1 = run(blob1);
  const core::RunResult r2 = run(blob2);
  EXPECT_EQ(blob1, blob2);
  expect_equal(r1, r2, "repeated schedule");
}

TEST(Session, SnapshotScheduleIsDeterministic) {
  for (const bool fast : kEngines) {
    SCOPED_TRACE(engine_name(fast));
    const core::DesOracleScope oracle{!fast};
    check_snapshot_schedule_is_deterministic({});
  }
}

// --- backpressure / API contract --------------------------------------------

TEST(Session, BackpressureRefusesThenDrains) {
  core::ScenarioConfig scenario;
  scenario.session.max_buffered_events = 8;
  const aer::EventStream events = make_stream(16, 5);
  core::Session s{scenario};
  std::size_t accepted = 0;
  while (accepted < events.size() && s.feed(events[accepted])) ++accepted;
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(s.buffered(), 8u);
  EXPECT_TRUE(s.backpressure());
  EXPECT_FALSE(s.feed(events[accepted]));
  s.advance_to(events[accepted].time);  // submits everything <= that time
  EXPECT_FALSE(s.backpressure());
  EXPECT_TRUE(s.feed(events[accepted]));
  EXPECT_EQ(s.events_fed(), 9u);
  (void)s.finish();
}

TEST(Session, FeedRejectsTimeRegression) {
  core::Session s{core::ScenarioConfig{}};
  EXPECT_TRUE(s.feed(aer::Event{1, Time::us(10)}));
  EXPECT_THROW((void)s.feed(aer::Event{2, Time::us(9)}),
               std::invalid_argument);
}

// An event at aer::kLatestEventTime runs to the end with every delay the
// pipeline adds after it still a Time (the sanitize preset turns a signed
// overflow into a failure), on the default clock, without shutdown and
// without division, on both engines. One picosecond later is refused by
// feed() and feed_all(), and so is the ingest pump's prefix.
TEST(Session, LatestEventTimeRunsCleanAndOnePastIsRefused) {
  const Time latest = aer::kLatestEventTime;
  const aer::Event late{9, latest + Time::ps(1)};
  for (const int clock : {0, 1, 2}) {
    for (const bool fast : kEngines) {
      core::ScenarioConfig sc;
      sc.interface.clock.shutdown_enabled = clock != 1;
      sc.interface.clock.divide_enabled = clock != 2;
      const std::string what =
          engine_name(fast) + " clock variant " + std::to_string(clock);
      auto s = make_session(sc, fast);
      s->feed_all(aer::EventStream{
          {1, Time::us(5)}, {2, latest - Time::us(3)}, {3, latest}});
      EXPECT_THROW((void)s->feed(late), std::invalid_argument) << what;
      EXPECT_THROW(s->feed_all(aer::EventStream{{4, latest}, late}),
                   std::invalid_argument)
          << what;
      EXPECT_EQ(s->events_fed(), 4u) << what;
      const core::RunResult r = s->finish();
      EXPECT_EQ(r.events_in, 4u) << what;
      EXPECT_EQ(r.words_out, 4u) << what;
      EXPECT_GT(r.sim_end, latest) << what;
    }
  }
  core::Session s{core::ScenarioConfig{}};
  core::IngestPump pump{s, 0.0, [] { return true; }};
  EXPECT_EQ(pump.push(aer::EventStream{{1, Time::us(5)}, {2, latest}, late}),
            2u);
  EXPECT_EQ(s.events_fed(), 2u);
}

// feed_all() keeps feed()'s ordering contract: the in-order prefix is
// accepted, then the call throws.
TEST(Session, FeedAllKeepsPrefixOnDisorder) {
  core::Session s{core::ScenarioConfig{}};
  ASSERT_TRUE(s.feed(aer::Event{1, Time::us(5)}));
  const aer::EventStream chunk{{2, Time::us(5)},
                               {3, Time::us(7)},
                               {4, Time::us(7)},
                               {5, Time::us(6)},
                               {6, Time::us(8)}};
  EXPECT_THROW(s.feed_all(chunk), std::invalid_argument);
  EXPECT_EQ(s.events_fed(), 4u);
  EXPECT_EQ(s.buffered(), 4u);
  // Going back before the last event fed is refused outright.
  EXPECT_THROW(s.feed_all(aer::EventStream{{7, Time::us(6)}}),
               std::invalid_argument);
  EXPECT_EQ(s.events_fed(), 4u);
  s.feed_all(aer::EventStream{{8, Time::us(7)}, {9, Time::us(9)}});
  EXPECT_EQ(s.events_fed(), 6u);
  EXPECT_EQ(s.finish().events_in, 6u);
}

// Fed in one call, a chunk must revive the handshake watchdog as a feed()
// per event would. At 1.99 ms the watchdog has wound down and the metrics
// grid has stopped at the last event fed; the 1.995 ms event re-arms the
// watchdog, whose next check (now + 10 us) falls on the 2 ms grid point,
// where the grid resumes. The session samples that point after the check,
// and the snapshot blob carries the row and the re-armed deadline.
TEST(Session, FeedAllRevivesServicesInPerEventOrder) {
  core::ScenarioConfig sc;
  sc.faults.aer.drop_req_prob = 1e-9;  // arms the watchdog, drops nothing
  sc.telemetry.metrics = true;
  sc.telemetry.metrics_window = Time::ms(1.0);
  const auto run = [&sc](bool one_call) {
    core::Session s{sc};
    EXPECT_TRUE(s.feed(aer::Event{1, Time::us(100)}));
    s.advance_to(Time::us(1990));
    const aer::EventStream more{{2, Time::us(1995)}, {3, Time::us(2500)}};
    if (one_call) {
      s.feed_all(more);
    } else {
      for (const auto& ev : more) EXPECT_TRUE(s.feed(ev));
    }
    s.advance_to(Time::ms(3.0));
    return s.snapshot();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Session, RestoreRejectsMismatchedScenario) {
  const core::DesOracleScope oracle;
  core::ScenarioConfig a;
  core::Session s{a};
  s.advance_to(Time::us(50));
  const auto blob = s.snapshot();

  core::ScenarioConfig b = a;
  b.interface.clock.theta_div *= 2;
  core::Session other{b};
  EXPECT_THROW(other.restore(blob), std::runtime_error);
}

TEST(Session, RestoreRejectsScenarioDifferingPastTheSixthDigit) {
  // The fingerprint is the exact dump, so a ring 0.0000321 MHz apart (the
  // same at six significant digits) is another interface.
  const core::DesOracleScope oracle;
  core::ScenarioConfig a;
  a.interface.clock.ring_frequency = Frequency::mhz(118.7654321);
  core::Session s{a};
  s.advance_to(Time::us(50));
  const auto blob = s.snapshot();

  core::ScenarioConfig b = a;
  b.interface.clock.ring_frequency = Frequency::mhz(118.765);
  core::Session other{b};
  EXPECT_THROW(other.restore(blob), std::runtime_error);
  core::Session same{a};
  EXPECT_NO_THROW(same.restore(blob));
}

/// Recompute a blob's CRC-32 trailer after an edit, as a hostile writer
/// would: the checksum catches accidents, not edits.
void reseal(std::vector<std::uint8_t>& blob) {
  const std::size_t body = blob.size() - 4;
  const std::uint32_t crc = util::crc32_bytes(blob.data(), body);
  for (std::size_t i = 0; i < 4; ++i) {
    blob[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

// A blob whose buffered events are out of order, or later than its last
// event time, is refused even under a valid checksum: submission takes
// every buffered event once the timeline reaches the last event time.
TEST(Session, RestoreRejectsBufferedEventsOutOfOrder) {
  for (const bool fast : kEngines) {
    SCOPED_TRACE(engine_name(fast));
    const core::DesOracleScope oracle{!fast};
    const core::ScenarioConfig scenario;
    const aer::EventStream events = make_stream(300, 29);
    core::Session s{scenario};
    s.feed_all(events);
    s.advance_to(events[events.size() / 2].time);
    const std::vector<std::uint8_t> blob = s.snapshot();
    // The last buffered event, as the blob stores it: u16 address, then
    // i64 picoseconds, both little-endian.
    const auto encode = [](const aer::Event& ev) {
      std::vector<std::uint8_t> bytes;
      for (int i = 0; i < 2; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(ev.address >> (8 * i)));
      }
      const auto ps = static_cast<std::uint64_t>(ev.time.count_ps());
      for (int i = 0; i < 8; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(ps >> (8 * i)));
      }
      return bytes;
    };
    const std::vector<std::uint8_t> last = encode(events.back());
    const auto at = std::search(blob.begin(), blob.end(), last.begin(),
                                last.end());
    ASSERT_NE(at, blob.end());
    for (const Time moved_to : {events[events.size() - 3].time,
                                events.back().time + Time::ps(1)}) {
      std::vector<std::uint8_t> bad = blob;
      const auto moved = encode(aer::Event{events.back().address, moved_to});
      std::copy(moved.begin(), moved.end(),
                bad.begin() + (at - blob.begin()));
      reseal(bad);
      core::Session fresh{scenario};
      EXPECT_THROW(fresh.restore(bad), std::runtime_error)
          << "moved to " << moved_to.count_ps() << " ps";
    }
  }
}

/// Overwrite the little-endian u64 at `at` and reseal.
void poke_u64(std::vector<std::uint8_t>& blob, std::size_t at,
              std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    blob[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  reseal(blob);
}

/// Byte offsets of the session-level fields at the head of a blob, in the
/// order Session::snapshot() writes them.
struct SessionFields {
  std::size_t first_event, last_event, n_pending, first_pending,
      watchdog_deadline, clock_now;
};

SessionFields session_fields(const std::vector<std::uint8_t>& blob) {
  std::size_t at = core::Session::kSnapshotHeaderBytes;
  std::uint64_t fingerprint = 0;
  std::memcpy(&fingerprint, blob.data() + at, 8);  // LE on every CI host
  at += 8 + fingerprint + 3;  // + telemetry, faults, engine flags
  SessionFields f{};
  // After started, keep_history, fed and have_first.
  f.first_event = at + 1 + 1 + 8 + 1;
  f.last_event = f.first_event + 8;
  f.n_pending = f.last_event + 8;
  f.first_pending = f.n_pending + 8 + 2;      // its time, after the address
  std::uint64_t n_pending = 0;
  std::memcpy(&n_pending, blob.data() + f.n_pending, 8);
  // After the buffered events, the queued count and the watchdog's flag.
  f.watchdog_deadline = f.n_pending + 8 + 10 * n_pending + 8 + 1;
  f.clock_now = f.watchdog_deadline + 8 + 8 + 8 + 8;  // suspect x2, re-arms
  return f;
}

/// A mid-stream blob of the default scenario with buffered events.
std::vector<std::uint8_t> buffered_blob(bool fast) {
  const aer::EventStream events = make_stream(300, 43);
  const std::unique_ptr<core::Session> s = make_session({}, fast);
  s->feed_all(events);
  s->advance_to(events[events.size() / 2].time);
  return s->snapshot();
}

void expect_refused(bool fast, const std::vector<std::uint8_t>& blob,
                    const std::string& why, const std::string& what,
                    const core::ScenarioConfig& sc = {}) {
  try {
    make_session(sc, fast)->restore(blob);
    ADD_FAILURE() << what << ": restore accepted the blob";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(why), std::string::npos)
        << what << ": " << e.what();
  }
}

// A length read from the blob is checked against the bytes left before
// anything is reserved: a pending count of 2^64 - 1 is a truncation
// error, not bad_alloc or length_error.
TEST(Session, RestoreRefusesCountsTheBlobCannotHold) {
  for (const bool fast : kEngines) {
    SCOPED_TRACE(engine_name(fast));
    std::vector<std::uint8_t> blob = buffered_blob(fast);
    EXPECT_NO_THROW(make_session({}, fast)->restore(blob));
    poke_u64(blob, session_fields(blob).n_pending, ~std::uint64_t{0});
    expect_refused(fast, blob, "truncated", "pending count 2^64 - 1");
  }
}

/// A drain-timeout blob on `fast`'s engine, with ten deadlines pending,
/// edited so that one deadline lies at or before the restored clock, past
/// `timeline_end` (near Time::max() it would overflow the first word pop
/// of the drain it starts), or before the one ahead of it: each is refused.
void expect_drain_deadlines_refused(bool fast, std::uint64_t timeline_end) {
  core::ScenarioConfig sc;
  sc.interface.drain_timeout = Time::ms(5);
  // Each word drains at once, so each lands in an empty FIFO and arms a
  // deadline of its own.
  sc.interface.fifo.batch_threshold = 1;
  aer::EventStream events;
  for (std::uint16_t i = 0; i < 10; ++i) {
    events.push_back({i, Time::us(20.0 * (i + 1))});
  }
  const std::unique_ptr<core::Session> s = make_session(sc, fast);
  s->feed_all(events);
  s->advance_to(events.back().time + Time::us(10));
  const std::vector<std::uint8_t> blob = s->snapshot();
  EXPECT_NO_THROW(make_session(sc, fast)->restore(blob));
  // The deadlines close the interface section, oldest first; the last is
  // the last word's sample edge plus the timeout.
  const auto& records = s->interface().front_end().records();
  ASSERT_EQ(records.size(), events.size());
  const auto last_ps = static_cast<std::uint64_t>(
      (records.back().sample_edge + sc.interface.drain_timeout).count_ps());
  std::uint8_t le[8];
  for (std::size_t i = 0; i < 8; ++i) {
    le[i] = static_cast<std::uint8_t>(last_ps >> (8 * i));
  }
  const auto it = std::search(blob.begin(), blob.end(), le, le + 8);
  ASSERT_NE(it, blob.end());
  const auto last = static_cast<std::size_t>(it - blob.begin());
  const std::size_t first = last - 8 * (events.size() - 1);
  std::uint64_t count = 0, clock = 0, before_last = 0;
  std::memcpy(&count, blob.data() + first - 8, 8);
  ASSERT_EQ(count, events.size());
  std::memcpy(&clock, blob.data() + session_fields(blob).clock_now, 8);
  std::memcpy(&before_last, blob.data() + last - 8, 8);
  const struct {
    std::size_t at;
    std::uint64_t bad;
    const char* why;
  } rows[] = {
      {last, last_ps | (std::uint64_t{1} << 63), "drain deadline out of range"},
      {last, timeline_end + 1, "drain deadline out of range"},
      {last, ~std::uint64_t{0} >> 1, "drain deadline out of range"},
      {first, clock, "drain deadline out of range"},
      {last, before_last - 1, "drain deadlines out of order"},
  };
  for (const auto& row : rows) {
    std::vector<std::uint8_t> edited = blob;
    poke_u64(edited, row.at, row.bad);
    expect_refused(fast, edited, row.why,
                   "drain deadline = " + std::to_string(row.bad), sc);
  }
}

// Every restored time lies where the writer keeps it: event times in
// [0, kLatestEventTime], the clock, timer deadlines and the engine's
// launch floor and last activity instant no further than one config time
// (ScenarioConfig::kMaxTime) past that, and drain deadlines after the
// clock and in order. A time with its sign bit flipped, or past its
// bound, is refused; a session that has run past the latest event time
// still restores.
TEST(Session, RestoreRefusesTimesOutsideTheRunRange) {
  const std::uint64_t latest = aer::kLatestEventTime.count_ps();
  const std::uint64_t timeline_end =
      latest + core::ScenarioConfig::kMaxTime.count_ps();
  for (const bool fast : kEngines) {
    SCOPED_TRACE(engine_name(fast));
    const std::vector<std::uint8_t> blob = buffered_blob(fast);
    const SessionFields f = session_fields(blob);
    const struct {
      const char* name;
      std::size_t at;
      std::uint64_t past;
      const char* why;
    } fields[] = {
        {"first event", f.first_event, latest + 1, "event time out of range"},
        {"last event", f.last_event, latest + 1, "event time out of range"},
        {"buffered event", f.first_pending, latest + 1, "event time out of range"},
        {"watchdog deadline", f.watchdog_deadline, timeline_end + 1,
         "deadline out of range"},
        {"clock", f.clock_now, timeline_end + 1, "deadline out of range"},
    };
    for (const auto& field : fields) {
      std::uint64_t saved = 0;
      std::memcpy(&saved, blob.data() + field.at, 8);
      for (const std::uint64_t bad : {saved | (std::uint64_t{1} << 63),
                                      field.past}) {
        std::vector<std::uint8_t> edited = blob;
        poke_u64(edited, field.at, bad);
        expect_refused(fast, edited, field.why,
                       std::string{field.name} + " = " + std::to_string(bad));
      }
    }
    // The engine's launch floor and last activity instant, right after the
    // scheduler clock's four fields.
    if (fast) {
      for (const std::size_t at : {f.clock_now + 32, f.clock_now + 40}) {
        for (const std::uint64_t bad :
             {std::uint64_t{1} << 63, timeline_end + 1}) {
          std::vector<std::uint8_t> edited = blob;
          poke_u64(edited, at, bad);
          expect_refused(fast, edited, "engine time out of range",
                         "engine field at " + std::to_string(at));
        }
      }
    }
    expect_drain_deadlines_refused(fast, timeline_end);
    // An event at kLatestEventTime: the clock runs past it, within bound.
    const std::unique_ptr<core::Session> s = make_session({}, fast);
    s->feed_all(aer::EventStream{{1, Time::us(5)}, {2, aer::kLatestEventTime}});
    s->advance_to(aer::kLatestEventTime);
    const std::vector<std::uint8_t> late = s->snapshot();
    EXPECT_NO_THROW(make_session({}, fast)->restore(late));
  }
}

TEST(Session, RestoreRejectsTruncatedBlob) {
  const core::DesOracleScope oracle;
  const core::ScenarioConfig scenario;
  core::Session s{scenario};
  s.advance_to(Time::us(50));
  auto blob = s.snapshot();
  blob.resize(blob.size() / 2);
  core::Session fresh{scenario};
  EXPECT_THROW(fresh.restore(blob), std::runtime_error);
}

TEST(Session, RestoreRequiresFreshSession) {
  const core::DesOracleScope oracle;
  const core::ScenarioConfig scenario;
  core::Session s{scenario};
  s.advance_to(Time::us(50));
  const auto blob = s.snapshot();
  core::Session used{scenario};
  (void)used.feed(aer::Event{1, Time::us(1)});
  EXPECT_THROW(used.restore(blob), std::logic_error);
}

// The seam picks the engine at construction: the analytic engine only
// moves the scheduler's clock, the event-driven oracle dispatches events.
// Scopes nest, an inert scope changes nothing, and a session keeps the
// engine it was built with after its scope ends.
TEST(Session, DesOracleScopeSelectsTheEventDrivenPath) {
  const aer::EventStream events = make_stream(200, 37);
  const auto dispatched = [&events](core::Session& s) {
    s.feed_all(events);
    s.advance_to(events.back().time);
    return s.scheduler().processed();
  };
  core::Session engine{core::ScenarioConfig{}};
  EXPECT_EQ(dispatched(engine), 0u);
  std::unique_ptr<core::Session> outlives_scope;
  {
    const core::DesOracleScope outer;
    {
      const core::DesOracleScope inner;
      const core::DesOracleScope inert{false};
    }
    outlives_scope = std::make_unique<core::Session>(core::ScenarioConfig{});
  }
  EXPECT_GT(dispatched(*outlives_scope), 0u);
  {
    const core::DesOracleScope inert{false};
    core::Session after{core::ScenarioConfig{}};
    EXPECT_EQ(dispatched(after), 0u);
  }
}

// Both engines share a config fingerprint but not their blob sections, so
// a blob restores only into a session on the engine that took it.
TEST(Session, BlobRestoresOnlyIntoTheEngineThatTookIt) {
  const aer::EventStream events = make_stream(300, 41);
  std::vector<std::uint8_t> blobs[2];
  for (const bool fast : kEngines) {
    const std::unique_ptr<core::Session> s = make_session({}, fast);
    s->feed_all(events);
    s->advance_to(events[events.size() / 2].time);
    blobs[fast ? 0 : 1] = s->snapshot();
  }
  for (const bool fast : kEngines) {
    SCOPED_TRACE(engine_name(fast));
    EXPECT_NO_THROW(make_session({}, fast)->restore(blobs[fast ? 0 : 1]));
    try {
      make_session({}, fast)->restore(blobs[fast ? 1 : 0]);
      FAIL() << "restored the other engine's blob";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("run engine differs"),
                std::string::npos)
          << e.what();
    }
  }
}

// run_scenario() is a thin wrapper over Session: same stream, same result.
TEST(Session, WrapperEquivalence) {
  for (const bool fast : kEngines) {
    const core::DesOracleScope oracle{!fast};
    const core::ScenarioConfig scenario;
    const aer::EventStream events = make_stream(1000, 13);
    const core::RunResult a = core::run_scenario(scenario, events);
    core::Session s{scenario};
    s.feed_all(events);
    expect_equal(s.finish(), a, "wrapper (" + engine_name(fast) + ")");
  }
}

std::string read_file(const std::string& path) {
  std::ifstream f{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{f}, std::istreambuf_iterator<char>{}};
}

/// Byte equality of two artifacts, reporting the first differing line
/// (gtest's own string diff is quadratic in the line count).
void expect_same_text(const std::string& a, const std::string& b,
                      const std::string& what) {
  EXPECT_FALSE(a.empty()) << what;
  if (a == b) return;
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  const std::size_t line = a.rfind('\n', at) + 1;  // npos + 1 == 0
  ADD_FAILURE() << what << " differ from byte " << at << ":\n  "
                << a.substr(line, a.find('\n', at) - line) << "\n  "
                << b.substr(line, b.find('\n', at) - line);
}

void expect_same_file(const std::string& a_path, const std::string& b_path,
                      const std::string& what) {
  expect_same_text(read_file(a_path), read_file(b_path),
                   what + ": " + a_path + " and " + b_path);
}

/// The batch entry point feeds and advances in 4096-event chunks, traced
/// and sampled runs too; the whole-stream Session run is the definition it
/// must equal, on both engines.
TEST(Session, ChunkedBatchMatchesWholeStream) {
  struct Case {
    std::string name;
    core::ScenarioConfig scenario;
    aer::EventStream events;
  };
  std::vector<Case> cases;
  for (const std::size_t n : {4095u, 4096u, 4097u}) {
    cases.push_back({std::to_string(n) + " events", {}, make_stream(n, 41)});
  }
  // Twelve events share one timestamp across the first chunk boundary.
  aer::EventStream tied = make_stream(8200, 43);
  for (std::size_t i = 4090; i < 4102; ++i) tied[i].time = tied[4090].time;
  cases.push_back({"ties across the boundary", {}, tied});
  // 1 ns apart: each handshake takes far longer, so launches queue well
  // past every chunk's last timestamp (and the FIFO overflows).
  aer::EventStream burst = make_stream(9000, 47);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    burst[i].time = Time::ns(static_cast<double>(i));
  }
  cases.push_back({"dense burst", {}, burst});
  core::ScenarioConfig ledger;
  ledger.energy_ledger = true;
  cases.push_back({"ledger", ledger, make_stream(9000, 53)});
  core::ScenarioConfig crc;
  crc.interface.fifo.batch_threshold = 64;
  crc.faults.i2s.bit_error_rate = 2e-4;
  crc.energy_ledger = true;
  cases.push_back({"crc framing", crc, make_stream(9000, 59)});
  core::ScenarioConfig traced;
  traced.telemetry.trace = true;
  traced.telemetry.metrics = true;
  traced.telemetry.metrics_window = Time::ms(0.5);
  cases.push_back({"telemetry", traced, make_stream(9000, 61)});

  for (const bool fast : kEngines) {
    const core::DesOracleScope oracle{!fast};
    for (const Case& c : cases) {
      const std::string what = engine_name(fast) + ", " + c.name;
      core::ScenarioConfig batch_sc = c.scenario;
      core::ScenarioConfig whole_sc = batch_sc;
      const bool telemetry = c.scenario.telemetry.any();
      if (telemetry) {
        // The artifacts must match too: the runner span, written at the
        // end, counts every event fed.
        const std::string dir = testing::TempDir() + "aetr_chunked_";
        batch_sc.telemetry.trace_csv_path = dir + "batch_trace.csv";
        batch_sc.telemetry.metrics_csv_path = dir + "batch_metrics.csv";
        whole_sc.telemetry.trace_csv_path = dir + "whole_trace.csv";
        whole_sc.telemetry.metrics_csv_path = dir + "whole_metrics.csv";
      }
      const core::RunResult batch = core::run_scenario(batch_sc, c.events);
      core::Session s{whole_sc};
      s.feed_all(c.events);
      const core::RunResult whole = s.finish();
      expect_identical(batch, whole, what);
      EXPECT_EQ(batch.events_in, c.events.size()) << what;
      if (c.scenario.faults.any()) {
        EXPECT_GT(whole.faults.crc_rejected_batches, 0u) << what;
      }
      if (telemetry && telemetry::compiled_in()) {
        expect_same_file(batch_sc.telemetry.trace_csv_path,
                         whole_sc.telemetry.trace_csv_path, what);
        expect_same_file(batch_sc.telemetry.metrics_csv_path,
                         whole_sc.telemetry.metrics_csv_path, what);
      }
    }
  }
  // The burst really leaves launches queued at a chunk boundary.
  core::Session s{core::ScenarioConfig{}};
  const std::span<const aer::Event> first{burst.data(), 4096};
  s.feed_all(first);
  s.advance_to(first.back().time);
  EXPECT_LT(s.interface().front_end().events(), 4096u / 2);
  (void)s.finish();
}

/// What a traced and sampled run leaves: its result, its three artifacts,
/// and how many grid points fell inside a capture (REQ rise to sample
/// edge) and inside a handshake's tail (sample edge to ACK fall).
struct ObservedRun {
  core::RunResult result;
  std::string trace_json, trace_csv, metrics_csv;
  std::size_t in_capture{0}, in_tail{0};
  /// With a drain timeout: drains a deadline started, and deadlines due at
  /// the instant of a word pop, a REQ rise or a sample edge.
  std::size_t deadline_drains{0}, deadline_ties{0};
};

/// Read the drain deadlines off a trace, which records events in dispatch
/// order: a word pushed into an empty FIFO (its occupancy counter rising
/// from zero) arms a deadline `timeout` later. Counts the drains that
/// begin at a deadline and the deadlines that fall on a word pop, a REQ
/// rise (capture begin) or a sample edge (capture end).
void count_deadlines(const telemetry::TraceSession& trace, Time timeout,
                     ObservedRun& out) {
  using Phase = telemetry::TraceSession::Phase;
  const auto is = [](const telemetry::TraceSession::Event& e, Phase phase,
                     const char* name) {
    return e.phase == phase && std::strcmp(e.name, name) == 0;
  };
  std::vector<Time> deadlines, drains, instants;
  double occupancy = 0.0;
  for (const auto& e : trace.events()) {
    if (is(e, Phase::kCounter, "occupancy")) {
      if (occupancy == 0.0 && e.args[0].value > 0.0) {
        deadlines.push_back(e.ts + timeout);
      }
      occupancy = e.args[0].value;
    } else if (is(e, Phase::kBegin, "drain")) {
      drains.push_back(e.ts);
    } else if (is(e, Phase::kInstant, "word") ||
               is(e, Phase::kBegin, "capture") ||
               is(e, Phase::kEnd, "capture")) {
      instants.push_back(e.ts);
    }
  }
  std::sort(instants.begin(), instants.end());
  for (const Time d : deadlines) {
    out.deadline_drains += static_cast<std::size_t>(
        std::count(drains.begin(), drains.end(), d));
    if (std::binary_search(instants.begin(), instants.end(), d)) {
      ++out.deadline_ties;
    }
  }
}

/// Feed `events` in uneven chunks, advancing after each to a point up to
/// 2 us short of its last event, and snapshot after about one chunk in
/// four; with `resume`, a fresh session restored from each blob carries
/// on. The chunk and snapshot schedule is the same for every call.
ObservedRun run_observed(const core::ScenarioConfig& sc,
                         const aer::EventStream& events, bool fast,
                         bool resume) {
  std::mt19937_64 rng{0xF1E5u};
  std::unique_ptr<core::Session> s = make_session(sc, fast);
  std::size_t snapshots = 0;
  for (std::size_t i = 0; i < events.size();) {
    const std::size_t n = std::min<std::size_t>(1 + rng() % 97,
                                                events.size() - i);
    s->feed_all({events.data() + i, n});
    i += n;
    const Time short_of = Time::ns(static_cast<double>(rng() % 2000));
    s->advance_to(std::max(Time::zero(), events[i - 1].time - short_of));
    if (rng() % 4 == 0) {
      const std::vector<std::uint8_t> blob = s->snapshot();
      ++snapshots;
      if (resume) {
        s = make_session(sc, fast);
        s->restore(blob);
      }
    }
  }
  EXPECT_GE(snapshots, 2u);
  ObservedRun out;
  out.result = s->finish();
  out.trace_json = read_file(sc.telemetry.trace_json_path);
  out.trace_csv = read_file(sc.telemetry.trace_csv_path);
  out.metrics_csv = read_file(sc.telemetry.metrics_csv_path);

  const core::InterfaceConfig& ic = sc.interface;
  if (ic.drain_timeout > Time::zero()) {
    count_deadlines(s->telemetry_session()->trace(), ic.drain_timeout, out);
  }
  const Time tail = ic.front_end.ack_rise_delay + sc.sender.req_release +
                    ic.front_end.ack_fall_delay;
  const auto& rows = s->telemetry_session()->metrics().snapshots();
  auto row = rows.begin();
  for (const frontend::CaptureRecord& rec : out.result.records) {
    while (row != rows.end() && row->at <= rec.request.time) ++row;
    for (; row != rows.end() && row->at < rec.sample_edge + tail; ++row) {
      if (row->at < rec.sample_edge) {
        ++out.in_capture;
      } else if (row->at > rec.sample_edge) {
        ++out.in_tail;
      }
    }
  }
  return out;
}

// A traced stream sampled every 300 ns, so that grid points fall inside
// captures and inside handshake tails, where the engine samples a point
// between the two halves of a capture or ahead of a pending ACK fall.
// Snapshotted and resumed at random points, it ends with the artifacts and
// RunResult of the session that took the same snapshots and kept going,
// on both engines, and the two engines agree.
TEST(Session, FineGridTelemetryResumesAlikeOnBothEngines) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "built with AETR_TELEMETRY=0";
  core::ScenarioConfig sc;
  sc.telemetry.trace = true;
  sc.telemetry.metrics = true;
  sc.telemetry.metrics_window = Time::ns(300);
  const std::string dir = testing::TempDir() + "aetr_fine_grid_";
  sc.telemetry.trace_json_path = dir + "trace.json";
  sc.telemetry.trace_csv_path = dir + "trace.csv";
  sc.telemetry.metrics_csv_path = dir + "metrics.csv";
  const aer::EventStream events = make_stream(600, 67);

  std::vector<ObservedRun> resumed;
  for (const bool fast : kEngines) {
    const std::string what = engine_name(fast);
    const ObservedRun kept = run_observed(sc, events, fast, false);
    resumed.push_back(run_observed(sc, events, fast, true));
    const ObservedRun& res = resumed.back();
    EXPECT_GT(kept.in_capture, 0u) << what;
    EXPECT_GT(kept.in_tail, 0u) << what;
    expect_identical(kept.result, res.result, what + ", resumed");
    expect_same_text(kept.trace_json, res.trace_json, what + ", trace JSON");
    expect_same_text(kept.trace_csv, res.trace_csv, what + ", trace CSV");
    expect_same_text(kept.metrics_csv, res.metrics_csv, what + ", metrics");
  }
  const ObservedRun& engine = resumed[0];
  const ObservedRun& des = resumed[1];
  expect_identical(engine.result, des.result, "engine vs DES");
  expect_same_text(engine.trace_json, des.trace_json, "engine vs DES, JSON");
  expect_same_text(engine.trace_csv, des.trace_csv, "engine vs DES, CSV");
  expect_same_text(engine.metrics_csv, des.metrics_csv, "engine vs DES, rows");
  for (const char* f : {"trace.json", "trace.csv", "metrics.csv"}) {
    std::remove((dir + f).c_str());
  }
}

// The same resume and engine agreement with a drain timeout. The timeout
// is a whole number of Tmin, so a deadline armed at one sample edge can
// fall on a later one; the stream is dense and the batch threshold above
// its length, so deadlines start the drains and some land on the instant
// of a word pop, a REQ rise or a sample edge, where the dispatch order
// decides the trace.
TEST(Session, DrainTimeoutResumesAlikeOnBothEngines) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "built with AETR_TELEMETRY=0";
  core::ScenarioConfig sc;
  sc.interface.drain_timeout = core::Session{sc}.interface().tick_unit() * 60;
  sc.interface.fifo.batch_threshold = 2048;
  sc.telemetry.trace = true;
  sc.telemetry.metrics = true;
  sc.telemetry.metrics_window = Time::ns(700);
  const std::string dir = testing::TempDir() + "aetr_drain_timeout_";
  sc.telemetry.trace_json_path = dir + "trace.json";
  sc.telemetry.trace_csv_path = dir + "trace.csv";
  sc.telemetry.metrics_csv_path = dir + "metrics.csv";
  gen::PoissonSource source{400e3, 256, 71};
  const aer::EventStream events = gen::take(source, 1500);

  std::vector<ObservedRun> resumed;
  for (const bool fast : kEngines) {
    const std::string what = engine_name(fast);
    const ObservedRun kept = run_observed(sc, events, fast, false);
    resumed.push_back(run_observed(sc, events, fast, true));
    const ObservedRun& res = resumed.back();
    EXPECT_GT(kept.deadline_drains, 10u) << what;
    EXPECT_GT(kept.deadline_ties, 0u) << what;
    expect_identical(kept.result, res.result, what + ", resumed");
    expect_same_text(kept.trace_json, res.trace_json, what + ", trace JSON");
    expect_same_text(kept.trace_csv, res.trace_csv, what + ", trace CSV");
    expect_same_text(kept.metrics_csv, res.metrics_csv, what + ", metrics");
  }
  const ObservedRun& engine = resumed[0];
  const ObservedRun& des = resumed[1];
  expect_identical(engine.result, des.result, "engine vs DES");
  expect_same_text(engine.trace_json, des.trace_json, "engine vs DES, JSON");
  expect_same_text(engine.trace_csv, des.trace_csv, "engine vs DES, CSV");
  expect_same_text(engine.metrics_csv, des.metrics_csv, "engine vs DES, rows");
  for (const char* f : {"trace.json", "trace.csv", "metrics.csv"}) {
    std::remove((dir + f).c_str());
  }
}

// --- aggregate-only runs -----------------------------------------------------

// A history-off run books its deliveries from the decoder's count, not
// from the (empty) decoded log: the ledger and the summary's `decoded =`
// line equal the history-on run's.
TEST(Session, HistoryOffReportsDeliveries) {
  for (const bool fast : kEngines) {
    const core::DesOracleScope oracle{!fast};
    core::ScenarioConfig scenario;
    scenario.energy_ledger = true;
    scenario.session.max_buffered_events = 256;
    const aer::EventStream events = make_stream(5000, 23);
    const Time every = Time::ms(3);
    const core::RunResult on = run_streamed(scenario, events, true, every);
    const core::RunResult off = run_streamed(scenario, events, false, every);
    const std::string what = engine_name(fast);
    EXPECT_TRUE(off.decoded.empty()) << what;
    EXPECT_EQ(on.delivered, on.decoded.size()) << what;
    EXPECT_EQ(off.delivered, on.decoded.size()) << what;
    EXPECT_EQ(off.ledger.events(obs::Outcome::kDelivered), events.size())
        << what;
    EXPECT_EQ(off.ledger.events(obs::Outcome::kFaultLost), 0u) << what;
    expect_same_ledger(on.ledger, off.ledger, what);
    EXPECT_EQ(core::run_summary_text(on), core::run_summary_text(off)) << what;
  }
}

/// A named scenario plus a factory for a fresh stimulus source, so two
/// runs can draw the identical stream.
struct SourceCase {
  std::string name;
  core::ScenarioConfig scenario;
  std::function<std::unique_ptr<gen::SpikeSource>()> source;
  std::size_t n_events;
  bool fast = true;  ///< false: run on the event-driven oracle
};

std::vector<SourceCase> source_cases() {
  const auto poisson = [] {
    return std::make_unique<gen::PoissonSource>(100e3, 256, 29);
  };
  std::vector<SourceCase> cases;
  for (const bool fast : kEngines) {
    core::ScenarioConfig ledger;
    ledger.energy_ledger = true;
    cases.push_back(
        {engine_name(fast) + " + ledger", ledger, poisson, 9000, fast});
  }
  // The fig8 stimulus at 800 kevt/s on the figure's interface.
  core::ScenarioConfig fig8;
  fig8.interface.front_end.keep_records = false;
  fig8.interface.fifo.batch_threshold = 512;
  fig8.cooldown = Time::ms(0.1);
  cases.push_back({"fig8 lfsr", fig8,
                   [] {
                     return std::make_unique<gen::LfsrRateSource>(
                         800e3, Frequency::mhz(30.0), 128, 7u, 0u);
                   },
                   20000});
  // CRC batch framing: the MCU defers decoding and rejects bad batches.
  core::ScenarioConfig crc;
  crc.interface.fifo.batch_threshold = 64;
  crc.faults.i2s.bit_error_rate = 2e-4;
  crc.energy_ledger = true;
  cases.push_back({"crc framing", crc, poisson, 5000});
  // More events asked for than the source holds: both stop where it ends.
  const aer::EventStream finite = make_stream(5000, 31);
  for (const bool fast : kEngines) {
    cases.push_back({engine_name(fast) + " + finite source",
                     {},
                     [finite] { return std::make_unique<gen::TraceSource>(
                                    finite); },
                     9000,
                     fast});
  }
  return cases;
}

// run_scenario_totals() is run_scenario() with history off: every
// aggregate field and the summary are bit-identical; only the per-event
// logs come back empty.
TEST(Session, TotalsMatchFullRun) {
  for (const SourceCase& c : source_cases()) {
    const core::DesOracleScope oracle{!c.fast};
    const auto full_src = c.source();
    const core::RunResult full =
        core::run_scenario(c.scenario, *full_src, c.n_events);
    const auto totals_src = c.source();
    const core::RunResult totals =
        core::run_scenario_totals(c.scenario, *totals_src, c.n_events);
    expect_same_totals(full, totals, c.name);
    EXPECT_FALSE(full.decoded.empty()) << c.name;
    EXPECT_TRUE(totals.records.empty()) << c.name;
    EXPECT_TRUE(totals.decoded.empty()) << c.name;
    EXPECT_TRUE(totals.delivery_latency_sec.empty()) << c.name;
    if (c.scenario.faults.any()) {
      EXPECT_GT(full.faults.crc_rejected_batches, 0u) << c.name;
    }
  }
}

// The source overload streams its stimulus in chunks instead of
// materialising it, and still equals the run over gen::take() field for
// field, per-event logs included.
TEST(Session, SourceOverloadMatchesMaterialized) {
  for (const SourceCase& c : source_cases()) {
    const core::DesOracleScope oracle{!c.fast};
    const auto src = c.source();
    const core::RunResult pulled =
        core::run_scenario(c.scenario, *src, c.n_events);
    const auto src2 = c.source();
    const core::RunResult taken =
        core::run_scenario(c.scenario, gen::take(*src2, c.n_events));
    expect_identical(pulled, taken, c.name);
    EXPECT_EQ(pulled.delivered, pulled.decoded.size()) << c.name;
  }
}

// --- the ingest pump's snapshot cadence ------------------------------------

TEST(IngestPump, RefusesIntervalsOutsideThePicosecondRange) {
  EXPECT_EQ(core::snapshot_interval(0.0), Time::zero());
  EXPECT_EQ(core::snapshot_interval(0.6e-12), Time::ps(1));
  EXPECT_EQ(core::snapshot_interval(0.02), Time::ms(20));
  EXPECT_EQ(core::snapshot_interval(9.2e6), Time::sec(9.2e6));
  core::Session s{core::ScenarioConfig{}};
  const auto keep_going = [] { return true; };
  for (const double sec : {1e-13, 0.4e-12, -1e-3, 9.23e6, 1e300,
                           std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(sec);
    EXPECT_FALSE(core::snapshot_interval(sec));
    EXPECT_THROW((void)core::IngestPump(s, sec, keep_going),
                 std::invalid_argument);
  }
}

// A checkpointing ingest run, fed one event per push as `aetr-serve run`
// feeds a trace, ends with the same summary on the analytic engine and on
// the event-driven oracle: every snapshot settles both to the same point.
TEST(IngestPump, SnapshottedStreamEndsTheSameOnBothEngines) {
  gen::PoissonSource source{100e3, 256, 7};
  const aer::EventStream events = gen::take(source, 20000);
  std::string summaries[2];
  for (const bool fast : kEngines) {
    SCOPED_TRACE(engine_name(fast));
    const std::unique_ptr<core::Session> s =
        make_session(core::ScenarioConfig{}, fast);
    std::size_t snapshots = 0;
    core::IngestPump pump{*s, 0.02, [&] {
                            EXPECT_FALSE(s->snapshot().empty());
                            ++snapshots;
                            return true;
                          }};
    for (const aer::Event& ev : events) ASSERT_EQ(pump.push({&ev, 1}), 1u);
    // One per 20 ms instant that an event reaches.
    EXPECT_EQ(snapshots, static_cast<std::size_t>(
                             events.back().time.count_ps() /
                             Time::ms(20).count_ps()));
    EXPECT_GE(snapshots, 9u);
    summaries[fast ? 0 : 1] = core::run_summary_text(s->finish());
  }
  EXPECT_EQ(summaries[0], summaries[1]);
}

TEST(IngestPump, NextInstantIsTheNextMultipleAndSaturates) {
  const Time five = Time::ps(5);
  EXPECT_EQ(core::next_snapshot_instant(Time::zero(), five), five);
  EXPECT_EQ(core::next_snapshot_instant(Time::ps(4), five), five);
  EXPECT_EQ(core::next_snapshot_instant(five, five), Time::ps(10));
  // A 5e6 s interval past an event at 5e18 ps would be 1e19 ps.
  const Time big = Time::sec(5e6);
  EXPECT_EQ(core::next_snapshot_instant(Time::ps(4'999'999'999'999'999'999),
                                        big),
            big);
  EXPECT_EQ(core::next_snapshot_instant(big, big), Time::max());
  EXPECT_EQ(core::next_snapshot_instant(Time::max(), Time::ps(1)),
            Time::max());
}

TEST(IngestPump, OnePicosecondIntervalFinishes) {
  // Every event lies past the next 1 ps instant, so each run is one event
  // long and ends in a snapshot instant.
  const aer::EventStream events = make_stream(200, 3);
  core::Session s{core::ScenarioConfig{}};
  std::size_t instants = 0;
  core::IngestPump pump{s, 1e-12, [&] {
                          ++instants;
                          return true;
                        }};
  EXPECT_EQ(pump.push(events), events.size());
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    distinct += i == 0 || events[i].time != events[i - 1].time;
  }
  EXPECT_EQ(instants, distinct);
  EXPECT_EQ(s.finish().events_in, events.size());
}

}  // namespace
