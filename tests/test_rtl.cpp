// RTL clock unit tests, culminating in the co-simulation equivalence proof:
// the edge-by-edge FSM and the closed-form ClockGenerator produce identical
// timestamps for identical stimuli.
#include <gtest/gtest.h>

#include <vector>

#include "clockgen/clock_generator.hpp"
#include "gen/sources.hpp"
#include "rtl/clock_unit.hpp"
#include "sim/scheduler.hpp"

namespace aetr::rtl {
namespace {

using namespace time_literals;

ClockUnitConfig small_rtl() {
  ClockUnitConfig cfg;
  cfg.theta_div = 8;
  cfg.n_div = 3;
  return cfg;
}

clockgen::ClockGeneratorConfig small_fast() {
  clockgen::ClockGeneratorConfig cfg;
  cfg.theta_div = 8;
  cfg.n_div = 3;
  return cfg;
}

TEST(RtlClockUnit, BaseClockIs15MHz) {
  sim::Scheduler sched;
  RtlClockUnit unit{sched, small_rtl()};
  unit.start();
  sched.run_until(1_ms);
  // 120 MHz ring / 2^3 = 15 MHz, but the FSM divides and then sleeps, so
  // base edges stop once asleep: expect exactly awake_span / Tmin edges.
  EXPECT_TRUE(unit.asleep());
  // theta*(2^(n+1)-1) = 8 * 15 = 120 base-clock periods of awake time.
  EXPECT_NEAR(static_cast<double>(unit.base_edges()), 120.0, 2.0);
}

TEST(RtlClockUnit, DivisionStaircase) {
  sim::Scheduler sched;
  RtlClockUnit unit{sched, small_rtl()};
  std::vector<std::pair<Time, std::uint32_t>> ticks;
  unit.sampling_line().on_rising(
      [&](Time t, Time) { ticks.emplace_back(t, unit.level()); });
  unit.start();
  sched.run_until(1_ms);
  // theta*(n+1) - 1 sampling edges (no reset edge at t=0 from the RTL side,
  // and the shutdown instant is not an edge).
  ASSERT_EQ(ticks.size(), 31u);
  // First 7 ticks at level 0, boundary tick at level 1, etc.
  EXPECT_EQ(ticks[0].second, 0u);
  EXPECT_EQ(ticks[6].second, 0u);
  EXPECT_EQ(ticks[7].second, 1u);   // the boundary edge
  EXPECT_EQ(ticks[15].second, 2u);
  EXPECT_EQ(ticks[23].second, 3u);
  // Spacing doubles across boundaries (measured between consecutive ticks).
  const Time tmin = ticks[1].first - ticks[0].first;
  EXPECT_EQ(ticks[9].first - ticks[8].first, tmin * 2);
  EXPECT_EQ(ticks[17].first - ticks[16].first, tmin * 4);
  EXPECT_EQ(ticks[25].first - ticks[24].first, tmin * 8);
}

TEST(RtlClockUnit, CounterTracksTminUnits) {
  sim::Scheduler sched;
  RtlClockUnit unit{sched, small_rtl()};
  unit.start();
  sched.run_until(1_ms);
  // Frozen at the saturation value theta*(2^(n+1)-1) = 120.
  EXPECT_EQ(unit.counter(), 120u);
}

TEST(RtlClockUnit, SampleLatchesAndResets) {
  sim::Scheduler sched;
  RtlClockUnit unit{sched, small_rtl()};
  std::vector<std::uint64_t> latched;
  unit.on_sample([&](Time, std::uint64_t c, bool sat) {
    latched.push_back(c);
    EXPECT_FALSE(sat);
    unit.set_request(false);  // handshake closes
  });
  unit.start();
  const Time tmin = Time::ps(66664);  // 8 ring periods
  sched.schedule_at(tmin * 3 + 1_ns, [&] { unit.set_request(true); });
  sched.run_until(tmin * 12);
  ASSERT_EQ(latched.size(), 1u);
  EXPECT_EQ(latched[0], 6u);  // first edge >= req is edge 4, +2 sync edges
  EXPECT_EQ(unit.level(), 0u);  // < theta ticks since the reset
}

TEST(RtlClockUnit, WakeFromSleepSamplesSaturated) {
  sim::Scheduler sched;
  RtlClockUnit unit{sched, small_rtl()};
  bool got = false;
  unit.on_sample([&](Time, std::uint64_t c, bool sat) {
    got = true;
    EXPECT_TRUE(sat);
    EXPECT_EQ(c, 120u);
    unit.set_request(false);
  });
  unit.start();
  sched.schedule_at(1_ms, [&] {
    EXPECT_TRUE(unit.asleep());
    unit.set_request(true);
  });
  sched.run_until(2_ms);
  EXPECT_TRUE(got);
  // It slept again after the post-sample schedule expired (another 8 us).
  EXPECT_TRUE(unit.asleep());
  EXPECT_EQ(unit.oscillator().wakeups(), 1u);
}

TEST(RtlClockUnit, NaiveModeNeverSleeps) {
  sim::Scheduler sched;
  ClockUnitConfig cfg = small_rtl();
  cfg.divide_enabled = false;
  RtlClockUnit unit{sched, cfg};
  unit.start();
  sched.run_until(100_us);
  EXPECT_FALSE(unit.asleep());
  EXPECT_EQ(unit.level(), 0u);
  // 15 MHz for 100 us: ~1500 sampling edges.
  EXPECT_NEAR(static_cast<double>(unit.sampling_line().edge_count()), 1500.0,
              3.0);
}

TEST(RtlClockUnit, ShutdownDisabledHoldsSlowestPeriod) {
  sim::Scheduler sched;
  ClockUnitConfig cfg = small_rtl();
  cfg.shutdown_enabled = false;
  RtlClockUnit unit{sched, cfg};
  unit.start();
  sched.run_until(1_ms);
  EXPECT_FALSE(unit.asleep());
  EXPECT_EQ(unit.level(), 3u);
  EXPECT_GT(unit.counter(), 120u);  // keeps counting at the slow period
}

// ---------------------------------------------------------------------------
// Co-simulation equivalence: RTL vs. closed-form ClockGenerator.

// Both harnesses emulate the AER sender's serialisation: a request can
// only launch after the previous handshake closed (captures never overlap).
struct FastHarness {
  sim::Scheduler sched;
  clockgen::ClockGenerator cg;
  std::vector<std::uint64_t> ticks;
  std::vector<bool> sats;
  aer::EventStream events;
  std::size_t next{0};
  std::uint32_t sync{2};

  explicit FastHarness(const clockgen::ClockGeneratorConfig& cfg)
      : cg{sched, cfg} {}

  void issue() {
    if (next >= events.size()) return;
    // The sender re-arms strictly after the previous handshake: a request
    // coincident with a sampling edge would be metastable in the first FF.
    const Time at = std::max(events[next].time, sched.now() + Time::ps(1));
    ++next;
    sched.schedule_at(at, [this] { capture(); });
  }

  /// The event-driven capture: begin at the REQ rise, complete at the
  /// sample edge it returns, then issue the next request.
  void capture() {
    const Time edge = cg.begin_capture(sync, sched.now());
    sched.schedule_at(edge, [this] {
      const clockgen::ClockGenerator::CaptureResult r = cg.complete_capture();
      ticks.push_back(r.ticks);
      sats.push_back(r.saturated);
      issue();
    });
  }

  void run(const aer::EventStream& evs, std::uint32_t sync_stages) {
    events = evs;
    sync = sync_stages;
    issue();
    sched.run();
  }
};

struct RtlHarness {
  sim::Scheduler sched;
  RtlClockUnit unit;
  std::vector<std::uint64_t> ticks;
  std::vector<bool> sats;
  aer::EventStream events;
  std::size_t next{0};

  explicit RtlHarness(const ClockUnitConfig& cfg) : unit{sched, cfg} {
    unit.on_sample([this](Time, std::uint64_t c, bool s) {
      ticks.push_back(c);
      sats.push_back(s);
      unit.set_request(false);
      issue();
    });
  }

  void issue() {
    if (next >= events.size()) return;
    // The sender re-arms strictly after the previous handshake: a request
    // coincident with a sampling edge would be metastable in the first FF.
    const Time at = std::max(events[next].time, sched.now() + Time::ps(1));
    ++next;
    sched.schedule_at(at, [this] { unit.set_request(true); });
  }

  void run(const aer::EventStream& evs) {
    events = evs;
    unit.start();
    issue();
    sched.run();
  }
};

class RtlEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(RtlEquivalence, TimestampsMatchClosedForm) {
  const double rate = GetParam();
  // Streams that keep the clock awake (no sleeps): divider phase after a
  // wake differs by a fraction of Tmin between the models, so the awake
  // path must be tick-exact and the sleep path is checked separately.
  gen::PoissonSource src{rate, 128, 2024, Time::ns(500.0)};
  auto events = gen::take(src, 400);
  for (auto& ev : events) {
    ev.time += 1_us;  // past both models' start-up
  }

  ClockUnitConfig rtl_cfg;
  rtl_cfg.theta_div = 8;
  rtl_cfg.n_div = 3;
  clockgen::ClockGeneratorConfig fast_cfg;
  fast_cfg.theta_div = 8;
  fast_cfg.n_div = 3;
  // Use the RTL ring's exact period (2 * stages * stage_delay) so the two
  // models share one picosecond grid — otherwise they drift a few ps per
  // cycle and quantise borderline requests differently.
  fast_cfg.ring_frequency = Frequency::from_period(
      rtl_cfg.ring.stage_delay * static_cast<Time::Rep>(2 * rtl_cfg.ring.stages));

  FastHarness fast{fast_cfg};
  fast.run(events, 2);
  RtlHarness rtl{rtl_cfg};
  rtl.run(events);

  ASSERT_EQ(fast.ticks.size(), events.size());
  ASSERT_EQ(rtl.ticks.size(), events.size());
  std::size_t awake_compared = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(rtl.sats[i], fast.sats[i]) << "event " << i;
    // The first event measures from different origins (construction vs.
    // start); all subsequent ones must agree tick-exactly.
    if (i > 0) {
      EXPECT_EQ(rtl.ticks[i], fast.ticks[i]) << "event " << i;
      awake_compared += rtl.sats[i] ? 0u : 1u;
    }
  }
  // The stream must actually exercise the awake (non-saturated) path.
  EXPECT_GE(awake_compared, 20u);
}

INSTANTIATE_TEST_SUITE_P(AwakeRates, RtlEquivalence,
                         ::testing::Values(30e3, 100e3, 400e3));

TEST(RtlEquivalenceSleep, BothSaturateOnLongGaps) {
  aer::EventStream events;
  for (int i = 1; i <= 20; ++i) {
    events.push_back(
        {static_cast<std::uint16_t>(i), Time::ms(static_cast<double>(i))});
  }
  FastHarness fast{small_fast()};
  fast.run(events, 2);
  RtlHarness rtl{small_rtl()};
  rtl.run(events);
  ASSERT_EQ(rtl.ticks.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(rtl.sats[i]);
    EXPECT_TRUE(fast.sats[i]);
    EXPECT_EQ(rtl.ticks[i], 120u);
    EXPECT_EQ(fast.ticks[i], 120u);
  }
}

}  // namespace
}  // namespace aetr::rtl
