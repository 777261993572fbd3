// Tests for the cycle-level ring oscillator, divider cascade, and the DES
// clock generator (capture semantics + activity accounting).
#include <gtest/gtest.h>

#include <vector>

#include "clockgen/clock_generator.hpp"
#include "clockgen/divider.hpp"
#include "clockgen/ring_oscillator.hpp"
#include "sim/scheduler.hpp"

namespace aetr::clockgen {
namespace {

using namespace time_literals;

TEST(RingOscillator, NominalFrequencyFromStages) {
  sim::Scheduler sched;
  RingOscillator osc{sched};  // 9 stages x 463 ps x 2 = 8334 ps
  EXPECT_NEAR(osc.nominal_frequency().to_mhz(), 120.0, 0.1);
}

TEST(RingOscillator, EvenStageCountRejected) {
  sim::Scheduler sched;
  RingOscillatorConfig cfg;
  cfg.stages = 8;
  EXPECT_THROW((RingOscillator{sched, cfg}), std::invalid_argument);
}

TEST(RingOscillator, ProducesPeriodicEdges) {
  sim::Scheduler sched;
  RingOscillatorConfig cfg;
  cfg.stages = 5;
  cfg.stage_delay = 1_ns;  // period 10 ns
  RingOscillator osc{sched, cfg};
  std::vector<Time> edges;
  osc.line().on_rising([&](Time t, Time) { edges.push_back(t); });
  osc.start();
  sched.run_until(55_ns);
  ASSERT_EQ(edges.size(), 5u);
  EXPECT_EQ(edges[0], 10_ns);
  EXPECT_EQ(edges[4], 50_ns);
}

TEST(RingOscillator, SleepStopsAfterInFlightCycle) {
  sim::Scheduler sched;
  RingOscillatorConfig cfg;
  cfg.stages = 5;
  cfg.stage_delay = 1_ns;
  RingOscillator osc{sched, cfg};
  int edges = 0;
  osc.line().on_rising([&](Time, Time) { ++edges; });
  osc.start();
  sched.run_until(25_ns);
  EXPECT_EQ(edges, 2);
  osc.sleep();  // glitch-free: the cycle in flight still completes
  sched.run_until(1_us);
  EXPECT_EQ(edges, 3);
  EXPECT_FALSE(osc.running());
}

TEST(RingOscillator, WakeLatencyMatchesPaper) {
  sim::Scheduler sched;
  RingOscillatorConfig cfg;
  cfg.stages = 5;
  cfg.stage_delay = 1_ns;
  cfg.wake_latency = 100_ns;  // paper §5.2: recovery ~100 ns
  RingOscillator osc{sched, cfg};
  std::vector<Time> edges;
  osc.line().on_rising([&](Time t, Time) { edges.push_back(t); });
  osc.start();
  sched.run_until(15_ns);
  osc.sleep();
  sched.run_until(500_ns);
  ASSERT_EQ(edges.size(), 2u);
  osc.wake();
  sched.run_until(700_ns);
  ASSERT_GE(edges.size(), 3u);
  // First edge after wake: latency plus one full cycle.
  EXPECT_EQ(edges[2], 610_ns);
  EXPECT_EQ(osc.wakeups(), 1u);
}

TEST(RingOscillator, WakeCancelsPendingSleep) {
  sim::Scheduler sched;
  RingOscillatorConfig cfg;
  cfg.stages = 5;
  cfg.stage_delay = 1_ns;
  RingOscillator osc{sched, cfg};
  osc.start();
  sched.run_until(12_ns);
  osc.sleep();
  osc.wake();  // request raced the sleep: ring must keep running
  sched.run_until(100_ns);
  EXPECT_TRUE(osc.running());
}

TEST(RingOscillator, AwakeTimeAccounting) {
  sim::Scheduler sched;
  RingOscillatorConfig cfg;
  cfg.stages = 5;
  cfg.stage_delay = 1_ns;
  RingOscillator osc{sched, cfg};
  osc.start();
  sched.run_until(20_ns);
  osc.sleep();
  sched.run();  // final edge at 30 ns, then frozen
  sched.run_until(1_us);
  EXPECT_EQ(osc.awake_time(), 30_ns);
}

TEST(RingOscillator, JitterPreservesMeanPeriod) {
  sim::Scheduler sched;
  RingOscillatorConfig cfg;
  cfg.stages = 5;
  cfg.stage_delay = 1_ns;
  cfg.jitter_stddev = 0.05;
  RingOscillator osc{sched, cfg};
  int edges = 0;
  osc.line().on_rising([&](Time, Time) { ++edges; });
  osc.start();
  sched.run_until(100_us);
  // 10 ns nominal period -> ~10000 edges; 5 % cycle jitter averages out.
  EXPECT_NEAR(edges, 10000, 150);
}

TEST(Divider, DividesByPowerOfTwo) {
  sim::Scheduler sched;
  sim::FixedClock clk{sched, 10_ns};
  DividerCascade div{clk.line(), 2};  // /4
  std::vector<Time> out;
  div.line().on_rising([&](Time t, Time p) {
    out.push_back(t);
    EXPECT_EQ(p, 40_ns);
  });
  clk.start();
  sched.run_until(200_ns);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], 40_ns);
  EXPECT_EQ(out[1], 80_ns);
  EXPECT_EQ(div.input_edges(), 20u);
}

TEST(Divider, RippleToggleCount) {
  sim::Scheduler sched;
  sim::FixedClock clk{sched, 10_ns};
  DividerCascade div{clk.line(), 3};  // /8
  clk.start();
  sched.run_until(80_ns);  // exactly 8 input edges: one full wrap
  // Ripple counter toggles: stage0 every edge (8), stage1 every 2nd (4),
  // stage2 every 4th (2) -> 14 total.
  EXPECT_EQ(div.ff_toggles(), 14u);
}

TEST(Divider, ChainTo30MhzReference) {
  sim::Scheduler sched;
  RingOscillator osc{sched};  // ~120 MHz
  DividerCascade ref{osc.line(), 2};
  int ref_edges = 0;
  ref.line().on_rising([&](Time, Time) { ++ref_edges; });
  osc.start();
  sched.run_until(1_us);
  EXPECT_NEAR(ref_edges, 30, 1);  // 30 MHz reference
}

TEST(Divider, InvalidStagesThrow) {
  sim::Scheduler sched;
  sim::FixedClock clk{sched, 10_ns};
  EXPECT_THROW((DividerCascade{clk.line(), 0}), std::invalid_argument);
  EXPECT_THROW((DividerCascade{clk.line(), 17}), std::invalid_argument);
}

// ---------------------------------------------------------------------------

ClockGeneratorConfig small_cfg() {
  ClockGeneratorConfig cfg;
  cfg.theta_div = 8;
  cfg.n_div = 3;
  return cfg;
}

/// A capture as the event-driven front-end runs one: begin_capture() at
/// the scheduler's clock, the REQ rise, then complete_capture() scheduled
/// at the sample edge that call returns, its result handed to `done`.
template <class Done>
void capture_now(sim::Scheduler& sched, ClockGenerator& cg,
                 std::uint32_t sync_edges, Done done) {
  const Time edge = cg.begin_capture(sync_edges, sched.now());
  sched.schedule_at(edge, [&cg, done] { done(cg.complete_capture()); });
}

using Capture = ClockGenerator::CaptureResult;

TEST(ClockGenerator, TminFromRingAndDividers) {
  sim::Scheduler sched;
  ClockGenerator cg{sched};
  // 120 MHz / 8 = 15 MHz -> 66.67 ns.
  EXPECT_NEAR(cg.tmin().to_ns(), 66.67, 0.05);
}

TEST(ClockGenerator, TminOutsideTheTimeRangeThrows) {
  // Tmin = ring period * 2^(divider stages): a shift past 62 stages or a
  // product past int64 picoseconds is refused, not computed.
  sim::Scheduler sched;
  ClockGeneratorConfig cfg;
  cfg.ref_divider_stages = 70;
  EXPECT_THROW((ClockGenerator{sched, cfg}), std::invalid_argument);
  cfg = ClockGeneratorConfig{};
  cfg.ring_frequency = Frequency::hz(1e-6);  // a 1e18 ps period, * 2^4
  cfg.ref_divider_stages = 3;
  EXPECT_THROW((ClockGenerator{sched, cfg}), std::invalid_argument);
}

TEST(ClockGenerator, CaptureQuantisesToSamplingEdge) {
  sim::Scheduler sched;
  ClockGenerator cg{sched, small_cfg()};
  const Time tmin = cg.tmin();
  std::uint64_t got_ticks = 0;
  Time got_edge;
  sched.schedule_at(tmin * 5 + 10_ns, [&] {
    capture_now(sched, cg, 0, [&](const Capture& c) {
      got_edge = c.edge;
      got_ticks = c.ticks;
      EXPECT_FALSE(c.saturated);
    });
  });
  sched.run();
  EXPECT_EQ(got_ticks, 6u);
  EXPECT_EQ(got_edge, tmin * 6);
}

TEST(ClockGenerator, CaptureWithSyncEdges) {
  sim::Scheduler sched;
  ClockGenerator cg{sched, small_cfg()};
  const Time tmin = cg.tmin();
  std::uint64_t got_ticks = 0;
  sched.schedule_at(tmin * 3 + 1_ns, [&] {
    capture_now(sched, cg, 2, [&](const Capture& c) { got_ticks = c.ticks; });
  });
  sched.run();
  EXPECT_EQ(got_ticks, 6u);  // edge 4 + 2 sync edges
}

TEST(ClockGenerator, CounterResetsAfterCapture) {
  sim::Scheduler sched;
  ClockGenerator cg{sched, small_cfg()};
  const Time tmin = cg.tmin();
  std::vector<std::uint64_t> ticks;
  auto capture_at = [&](Time t) {
    sched.schedule_at(t, [&] {
      capture_now(sched, cg, 0,
                  [&](const Capture& c) { ticks.push_back(c.ticks); });
    });
  };
  capture_at(tmin * 4 + 1_ns);
  capture_at(tmin * 9 - 1_ns);  // <4 ticks after the previous sample edge
  sched.run();
  ASSERT_EQ(ticks.size(), 2u);
  EXPECT_EQ(ticks[0], 5u);
  EXPECT_EQ(ticks[1], 4u);  // counter restarted at the 5*tmin sample edge
}

TEST(ClockGenerator, SleepsAfterScheduleAndTagsSaturated) {
  sim::Scheduler sched;
  ClockGenerator cg{sched, small_cfg()};
  const Time awake = cg.schedule().awake_span();
  bool saturated = false;
  std::uint64_t got_ticks = 0;
  sched.schedule_at(awake * 3, [&] {
    EXPECT_TRUE(cg.asleep());
    capture_now(sched, cg, 2, [&](const Capture& c) {
      saturated = c.saturated;
      got_ticks = c.ticks;
    });
  });
  sched.run();
  EXPECT_TRUE(saturated);
  EXPECT_EQ(got_ticks, cg.schedule().saturation_ticks());
  EXPECT_EQ(cg.activity().wakeups, 1u);
}

TEST(ClockGenerator, OverlappingCaptureThrows) {
  sim::Scheduler sched;
  ClockGenerator cg{sched, small_cfg()};
  sched.schedule_at(1_ns, [&] {
    capture_now(sched, cg, 2, [](const Capture&) {});
    EXPECT_THROW(capture_now(sched, cg, 2, [](const Capture&) {}),
                 std::logic_error);
  });
  sched.run();
}

TEST(ClockGenerator, LevelAndPeriodTrackSchedule) {
  sim::Scheduler sched;
  ClockGenerator cg{sched, small_cfg()};
  const Time tmin = cg.tmin();
  EXPECT_EQ(cg.level(), 0u);
  EXPECT_EQ(cg.current_period(), tmin);
  sched.run_until(tmin * 9);  // past the first division (theta=8)
  EXPECT_EQ(cg.level(), 1u);
  EXPECT_EQ(cg.current_period(), tmin * 2);
}

TEST(ClockGenerator, ActivityCyclesMatchScheduleMath) {
  sim::Scheduler sched;
  ClockGenerator cg{sched, small_cfg()};
  // Run past shutdown with no events: cycles = theta*(n+1)-1 = 31,
  // awake = awake_span.
  sched.run_until(1_sec);
  const auto a = cg.activity();
  EXPECT_EQ(a.sampling_cycles, 31u);
  EXPECT_EQ(a.awake, cg.schedule().awake_span());
  EXPECT_EQ(a.captures, 0u);
}

TEST(ClockGenerator, NaiveModeNeverSleeps) {
  sim::Scheduler sched;
  ClockGeneratorConfig cfg = small_cfg();
  cfg.divide_enabled = false;
  ClockGenerator cg{sched, cfg};
  sched.run_until(1_ms);
  EXPECT_FALSE(cg.asleep());
  const auto a = cg.activity();
  EXPECT_EQ(a.awake, 1_ms);
  // 15 MHz for 1 ms -> ~15000 cycles.
  EXPECT_NEAR(static_cast<double>(a.sampling_cycles), 15000.0, 2.0);
}

// An SPI retune between a capture's request and its sample edge settles
// [origin, retune] once: the capture closes its books from the retune, so
// the awake time and the sampling cycles stay within the elapsed time.
TEST(ClockGenerator, RetuneMidCaptureBooksEachIntervalOnce) {
  for (const bool divide : {true, false}) {
    SCOPED_TRACE(divide ? "dividing" : "naive");
    sim::Scheduler sched;
    ClockGeneratorConfig cfg = small_cfg();
    cfg.divide_enabled = divide;
    ClockGenerator cg{sched, cfg};
    const Time tmin = cg.tmin();
    Time edge = Time::zero();
    sched.schedule_at(tmin * 5 + 10_ns, [&] {
      ASSERT_FALSE(cg.asleep());
      edge = cg.begin_capture(2, sched.now());
      sched.schedule_at(edge - 1_ns, [&] { cg.set_theta_div(16); });
      sched.schedule_at(edge, [&] { (void)cg.complete_capture(); });
    });
    sched.run();
    ASSERT_EQ(sched.now(), edge);
    const ClockActivity a = cg.activity();
    EXPECT_LE(a.awake, sched.now());
    EXPECT_LE(a.sampling_cycles,
              static_cast<std::uint64_t>(sched.now() / tmin) + 1);
    EXPECT_EQ(a.captures, 1u);
  }
}

TEST(ClockGenerator, RuntimeReconfigTakesEffect) {
  sim::Scheduler sched;
  ClockGenerator cg{sched, small_cfg()};
  sched.run_until(10_us);
  cg.set_theta_div(16);
  EXPECT_EQ(cg.config().theta_div, 16u);
  EXPECT_EQ(cg.level(), 0u);  // schedule restarted
  cg.set_n_div(5);
  const Time expected =
      cg.tmin() * static_cast<Time::Rep>(16 * ((1 << 6) - 1));
  EXPECT_EQ(cg.schedule().awake_span(), expected);
}

TEST(ClockGenerator, ReconfigSettlesActivity) {
  sim::Scheduler sched;
  ClockGenerator cg{sched, small_cfg()};
  const Time tmin = cg.tmin();
  sched.run_until(tmin * 4);
  cg.set_theta_div(16);
  sched.run_until(tmin * 10);
  const auto a = cg.activity();
  EXPECT_EQ(a.sampling_cycles, 10u);  // 4 before + 6 after
}

}  // namespace
}  // namespace aetr::clockgen
