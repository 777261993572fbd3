// Tests for the AER front-end: synchronisation latency, timestamp tagging,
// 4-phase ACK generation, saturation, and metastability injection.
#include <gtest/gtest.h>

#include <vector>

#include "aer/agents.hpp"
#include "frontend/aer_frontend.hpp"
#include "sim/scheduler.hpp"

namespace aetr::frontend {
namespace {

using namespace time_literals;

struct Bench {
  sim::Scheduler sched;
  aer::AerChannel channel{sched};
  clockgen::ClockGenerator clkgen;
  AerFrontEnd fe;
  aer::AerSender sender;
  std::vector<aer::AetrWord> words;

  explicit Bench(clockgen::ClockGeneratorConfig ccfg = {},
                 FrontEndConfig fcfg = {})
      : clkgen{sched, ccfg}, fe{sched, channel, clkgen, fcfg},
        sender{sched, channel} {
    channel.set_strict(true);
    fe.on_word([this](aer::AetrWord w, Time) { words.push_back(w); });
  }
};

clockgen::ClockGeneratorConfig small_clock() {
  clockgen::ClockGeneratorConfig cfg;
  cfg.theta_div = 8;
  cfg.n_div = 3;
  return cfg;
}

TEST(FrontEnd, SingleEventTimedAndAcked) {
  Bench b{small_clock()};
  b.sender.submit(aer::Event{42, 1_us});
  b.sched.run();
  ASSERT_EQ(b.words.size(), 1u);
  EXPECT_EQ(b.words[0].address(), 42);
  EXPECT_EQ(b.channel.handshakes(), 1u);
  EXPECT_TRUE(b.channel.violations().empty());
  EXPECT_EQ(b.fe.events(), 1u);
}

TEST(FrontEnd, TimestampIsDeltaInTminTicks) {
  Bench b{small_clock()};
  const Time tmin = b.clkgen.tmin();
  b.sender.submit(aer::Event{1, Time::zero()});
  b.sender.submit(aer::Event{2, tmin * 20});
  b.sched.run();
  ASSERT_EQ(b.words.size(), 2u);
  // Second delta: ~20 ticks (sync adds latency to both endpoints; the
  // difference stays within a couple of the *current* period).
  EXPECT_NEAR(static_cast<double>(b.words[1].timestamp_ticks()), 20.0, 4.0);
}

TEST(FrontEnd, SyncLatencyIsTwoEdges) {
  FrontEndConfig fcfg;
  fcfg.sync_stages = 2;
  Bench b{small_clock(), fcfg};
  const Time tmin = b.clkgen.tmin();
  b.sender.submit(aer::Event{1, tmin * 3 + 1_ns});
  b.sched.run();
  ASSERT_EQ(b.fe.records().size(), 1u);
  // Request just after edge 3 (+5 ns addr setup): first edge 4, +2 sync.
  EXPECT_EQ(b.fe.records()[0].sample_edge, tmin * 6);
}

TEST(FrontEnd, SaturatedTagAfterLongSilence) {
  Bench b{small_clock()};
  const Time awake = b.clkgen.schedule().awake_span();
  b.sender.submit(aer::Event{1, Time::zero()});
  b.sender.submit(aer::Event{2, awake * 5});
  b.sched.run();
  ASSERT_EQ(b.words.size(), 2u);
  EXPECT_TRUE(b.words[1].is_saturated());
  EXPECT_EQ(b.fe.saturated_events(), 1u);
}

TEST(FrontEnd, BackToBackEventsSerialised) {
  Bench b{small_clock()};
  for (int i = 0; i < 50; ++i) {
    b.sender.submit(aer::Event{static_cast<std::uint16_t>(i % 8),
                               Time::ns(static_cast<double>(i) * 50.0)});
  }
  b.sched.run();
  EXPECT_EQ(b.words.size(), 50u);
  EXPECT_EQ(b.channel.handshakes(), 50u);
  EXPECT_TRUE(b.channel.violations().empty());
}

TEST(FrontEnd, RecordsHoldGroundTruth) {
  Bench b{small_clock()};
  b.sender.submit(aer::Event{7, 500_ns});
  b.sched.run();
  ASSERT_EQ(b.fe.records().size(), 1u);
  const auto& rec = b.fe.records()[0];
  EXPECT_EQ(rec.request.address, 7);
  EXPECT_EQ(rec.request.time, 505_ns);  // + addr setup
  EXPECT_GE(rec.sample_edge, rec.request.time);
  EXPECT_EQ(rec.word.address(), 7);
}

TEST(FrontEnd, RecordsCanBeDisabled) {
  FrontEndConfig fcfg;
  fcfg.keep_records = false;
  Bench b{small_clock(), fcfg};
  b.sender.submit(aer::Event{1, 1_us});
  b.sched.run();
  EXPECT_TRUE(b.fe.records().empty());
  EXPECT_EQ(b.fe.events(), 1u);
}

TEST(FrontEnd, RecordCapDropsOldestHalf) {
  FrontEndConfig fcfg;
  fcfg.max_records = 10;
  Bench b{small_clock(), fcfg};
  for (int i = 0; i < 25; ++i) {
    b.sender.submit(aer::Event{static_cast<std::uint16_t>(i),
                               Time::us(static_cast<double>(i + 1) * 5.0)});
  }
  b.sched.run();
  EXPECT_EQ(b.fe.events(), 25u);
  EXPECT_LE(b.fe.records().size(), 10u);
  // The newest events survive the trim.
  EXPECT_EQ(b.fe.records().back().request.address, 24);
}

// clear_records() drops the log, not the counters: captures after it are
// logged again from an empty log.
TEST(FrontEnd, ClearRecordsKeepsCounting) {
  Bench b{small_clock(), FrontEndConfig{}};
  for (int i = 0; i < 25; ++i) {
    b.sender.submit(aer::Event{static_cast<std::uint16_t>(i),
                               Time::us(static_cast<double>(i + 1) * 5.0)});
  }
  b.sched.run_until(Time::us(62.0));
  EXPECT_EQ(b.fe.records().size(), 12u);
  b.fe.clear_records();
  EXPECT_TRUE(b.fe.records().empty());
  b.sched.run();
  EXPECT_EQ(b.fe.events(), 25u);
  ASSERT_EQ(b.fe.records().size(), 13u);
  EXPECT_EQ(b.fe.records().front().request.address, 12);
  EXPECT_EQ(b.fe.records().back().request.address, 24);
}

TEST(FrontEnd, MetastabilityAddsOneEdgeSometimes) {
  FrontEndConfig fcfg;
  fcfg.metastability_prob = 0.5;
  fcfg.seed = 9;
  Bench b{small_clock(), fcfg};
  for (int i = 0; i < 200; ++i) {
    b.sender.submit(aer::Event{1, Time::us(static_cast<double>(i) * 2.0)});
  }
  b.sched.run();
  EXPECT_EQ(b.fe.events(), 200u);
  EXPECT_GT(b.fe.metastable_hits(), 50u);
  EXPECT_LT(b.fe.metastable_hits(), 150u);
  EXPECT_TRUE(b.channel.violations().empty());
}

TEST(FrontEnd, WakeupPathProducesValidHandshake) {
  Bench b{small_clock()};
  const Time awake = b.clkgen.schedule().awake_span();
  // First event while asleep (the generator starts its schedule at t=0 and
  // has long since shut down).
  b.sender.submit(aer::Event{3, awake * 10});
  b.sched.run();
  ASSERT_EQ(b.words.size(), 1u);
  EXPECT_TRUE(b.words[0].is_saturated());
  EXPECT_EQ(b.channel.handshakes(), 1u);
  EXPECT_EQ(b.clkgen.activity().wakeups, 1u);
}

TEST(FrontEnd, ManyEventsNoProtocolViolations) {
  Bench b{small_clock()};
  Time t = Time::zero();
  for (int i = 0; i < 500; ++i) {
    t += Time::us(static_cast<double>(1 + (i * 7) % 40));
    b.sender.submit(aer::Event{static_cast<std::uint16_t>(i % 128), t});
  }
  b.sched.run();
  EXPECT_EQ(b.fe.events(), 500u);
  EXPECT_TRUE(b.channel.violations().empty());
}

}  // namespace
}  // namespace aetr::frontend
