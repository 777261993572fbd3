// core::Session: the incremental run API behind run_scenario().
//
// The load-bearing properties:
//   * streaming (feed / advance_to) without snapshots reproduces the batch
//     run exactly, at every advance schedule;
//   * a snapshot is a deterministic synchronization point: a fresh session
//     restored from the blob continues byte-identically to the session that
//     took it — including later snapshot blobs, byte for byte — at 25
//     randomized mid-stream points, with faults injected and telemetry on;
//   * with history off the capture log is folded away as the run goes:
//     snapshots stay the size of the input buffer and the error stats
//     match the history-on run bitwise;
//   * backpressure, feed ordering, and restore rejection (including a
//     corrupted byte anywhere in the blob) behave as documented in
//     core/session.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <string>
#include <vector>

#include "analysis/error.hpp"
#include "core/scenario.hpp"
#include "core/session.hpp"
#include "fault/fault_plan.hpp"
#include "gen/sources.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace aetr;

aer::EventStream make_stream(std::size_t n, std::uint64_t seed) {
  gen::PoissonSource source{100e3, 256, seed};
  return gen::take(source, n);
}

core::ScenarioConfig faulty_scenario() {
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;
  scenario.faults = fault::scaled_plan(0.3, 42);
  telemetry::SessionOptions tel;
  tel.metrics = true;  // probes + snapshot grid; no artifact paths
  scenario.telemetry = core::TelemetryChoice::owned(tel);
  return scenario;
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
  EXPECT_EQ(a.decoded.size(), b.decoded.size()) << what;
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
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;  // force the event-driven path in batch
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
    expect_equal(s.finish(), ref, "advance at k=" + std::to_string(k));
  }
}

// Per-event feeding with interleaved advances (the service-mode pattern,
// minus snapshots) also reproduces the batch run exactly.
TEST(Session, StreamedFeedMatchesBatch) {
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;
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
  expect_equal(s.finish(), ref, "streamed feed");
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
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;
  check_kill_resume(scenario, 25);
}

TEST(Session, KillResumeByteIdenticalWithFaultsAndTelemetry) {
  check_kill_resume(faulty_scenario(), 25);
}

TEST(Session, KillResumeByteIdenticalWithoutHistory) {
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;
  check_kill_resume(scenario, 25, /*keep_history=*/false);
}

// --- history off -------------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

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
  for (const core::ScenarioConfig& base :
       {core::ScenarioConfig{}, faulty_scenario()}) {
    core::ScenarioConfig scenario = base;
    scenario.fast_forward = false;
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
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;
  const aer::EventStream events = make_stream(500, 19);
  core::Session s{scenario};
  s.set_keep_history(false);
  s.feed_all(events);
  s.advance_to(events[events.size() / 2].time);
  EXPECT_GT(s.interface().front_end().events(), 0u);
  EXPECT_TRUE(s.interface().front_end().records().empty());
}

// With history off a snapshot holds the buffered input plus constant-size
// state: late in the stream it is no bigger than early on, give or take
// what is buffered at each point — events the session has not submitted
// yet (10 blob bytes apiece) and words waiting in the FIFO (4 apiece).
TEST(Session, HistoryOffSnapshotSizeIsFlat) {
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;
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

// Every byte of a blob is covered: the magic and version by their own
// checks, everything else by the CRC-32 trailer. No single corrupted byte
// may crash restore() or slip through it.
TEST(Session, RestoreRejectsEveryCorruptedByte) {
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;
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

// Two sessions driven through the identical feed/advance/snapshot schedule
// produce identical blobs and results: the run is a deterministic function
// of (stream, snapshot schedule).
TEST(Session, SnapshotScheduleIsDeterministic) {
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;
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

TEST(Session, RestoreRejectsMismatchedScenario) {
  core::ScenarioConfig a;
  a.fast_forward = false;
  core::Session s{a};
  s.advance_to(Time::us(50));
  const auto blob = s.snapshot();

  core::ScenarioConfig b = a;
  b.interface.clock.theta_div *= 2;
  core::Session other{b};
  EXPECT_THROW(other.restore(blob), std::runtime_error);
}

TEST(Session, RestoreRejectsTruncatedBlob) {
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;
  core::Session s{scenario};
  s.advance_to(Time::us(50));
  auto blob = s.snapshot();
  blob.resize(blob.size() / 2);
  core::Session fresh{scenario};
  EXPECT_THROW(fresh.restore(blob), std::runtime_error);
}

TEST(Session, RestoreRequiresFreshSession) {
  core::ScenarioConfig scenario;
  scenario.fast_forward = false;
  core::Session s{scenario};
  s.advance_to(Time::us(50));
  const auto blob = s.snapshot();
  core::Session used{scenario};
  (void)used.feed(aer::Event{1, Time::us(1)});
  EXPECT_THROW(used.restore(blob), std::logic_error);
}

// run_scenario() is a thin wrapper over Session: same stream, same result.
TEST(Session, WrapperEquivalence) {
  for (const bool fast_forward : {false, true}) {
    core::ScenarioConfig scenario;
    scenario.fast_forward = fast_forward;
    const aer::EventStream events = make_stream(1000, 13);
    const core::RunResult a = core::run_scenario(scenario, events);
    core::Session s{scenario};
    s.feed_all(events);
    expect_equal(s.finish(), a,
                 fast_forward ? "wrapper (fast path)" : "wrapper (DES)");
  }
}

}  // namespace
