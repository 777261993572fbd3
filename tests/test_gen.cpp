// Unit tests for the stimulus generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gen/scenario.hpp"
#include "gen/sources.hpp"
#include "util/stats.hpp"

namespace aetr::gen {
namespace {

using namespace time_literals;

double mean_rate_hz(const aer::EventStream& events) {
  if (events.size() < 2) return 0.0;
  return static_cast<double>(events.size() - 1) /
         (events.back().time - events.front().time).to_sec();
}

TEST(Poisson, MeanRateMatchesTarget) {
  PoissonSource src{10e3, 128, 42};
  const auto events = take(src, 20000);
  EXPECT_NEAR(mean_rate_hz(events), 10e3, 300.0);
}

TEST(Poisson, IntervalsAreExponential) {
  PoissonSource src{1e3, 128, 7};
  const auto events = take(src, 50000);
  RunningStats dt;
  for (std::size_t i = 1; i < events.size(); ++i) {
    dt.add((events[i].time - events[i - 1].time).to_sec());
  }
  // Exponential: stddev == mean.
  EXPECT_NEAR(dt.stddev() / dt.mean(), 1.0, 0.03);
}

TEST(Poisson, TimesMonotone) {
  PoissonSource src{100e3, 64, 3};
  const auto events = take(src, 5000);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time);
  }
}

TEST(Poisson, AddressesCoverRange) {
  PoissonSource src{1e3, 8, 1};
  const auto events = take(src, 2000);
  std::array<int, 8> hits{};
  for (const auto& ev : events) {
    ASSERT_LT(ev.address, 8);
    ++hits[ev.address];
  }
  for (int h : hits) EXPECT_GT(h, 100);
}

TEST(Poisson, MinGapHonored) {
  PoissonSource src{1e6, 16, 9, 500_ns};
  const auto events = take(src, 5000);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time - events[i - 1].time, 500_ns);
  }
}

TEST(Poisson, DeterministicPerSeed) {
  PoissonSource a{5e3, 32, 11}, b{5e3, 32, 11};
  EXPECT_EQ(take(a, 100), take(b, 100));
}

TEST(Regular, ExactPeriodicity) {
  RegularSource src{10_us, 4, 5_us};
  const auto events = take(src, 10);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, Time::us(5.0) + Time::us(10.0 * static_cast<double>(i)));
    EXPECT_EQ(events[i].address, i % 4);
  }
}

TEST(LfsrRate, EffectiveRateNearTarget) {
  LfsrRateSource src{50e3, Frequency::mhz(30.0), 128, 0xACE1, 0x1234};
  EXPECT_NEAR(src.effective_rate_hz(), 50e3, 500.0);
  const auto events = take(src, 20000);
  EXPECT_NEAR(mean_rate_hz(events), 50e3, 2500.0);
}

TEST(LfsrRate, EventsAlignedToGeneratorClock) {
  LfsrRateSource src{100e3, Frequency::mhz(30.0), 64, 0xACE1, 0x5678};
  const Time gen_period = Frequency::mhz(30.0).period();
  const auto events = take(src, 1000);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.time % gen_period, Time::zero());
  }
}

TEST(LfsrRate, IntervalsGeometricLike) {
  LfsrRateSource src{200e3, Frequency::mhz(30.0), 64, 0xBEEF, 0xCAFE};
  const auto events = take(src, 30000);
  RunningStats dt;
  for (std::size_t i = 1; i < events.size(); ++i) {
    dt.add((events[i].time - events[i - 1].time).to_sec());
  }
  // Geometric ~ exponential at low firing probability: cv ~ 1.
  EXPECT_NEAR(dt.stddev() / dt.mean(), 1.0, 0.08);
}

// FNV-1a 64 over each event's address and picosecond time.
std::uint64_t stream_digest(const aer::EventStream& events) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& ev : events) {
    const std::int64_t t = ev.time.count_ps();
    mix(&ev.address, sizeof ev.address);
    mix(&t, sizeof t);
  }
  return h;
}

// The Fig. 8 stimulus pinned to digests recorded from the bit-serial LFSR:
// same construction and event counts as sweeps::fig8. Any drift in the
// register's bit order, stepping or the geometric sampling changes them.
TEST(LfsrRate, GoldenFig8StimulusDigests) {
  struct Golden {
    double rate_hz;
    std::uint64_t seed;
    std::size_t events;
    std::uint64_t digest;
  };
  const Golden golden[] = {
      {10.0, 1, 300, 0x7e06c9e94aa9fac0ull},
      {1e3, 1, 500, 0x588eebbbcfb5f9deull},
      {100e3, 1, 20000, 0xf6dc14e9ade7b768ull},
      {800e3, 1, 20000, 0x395756dc134c910full},
      {10.0, 7, 300, 0xa7c4975341b1ab90ull},
      {800e3, 7, 20000, 0x61ed9fbba2cfa74bull},
      {1e3, 0x9E3779B97F4A7C15ull, 500, 0xc6ccb87e7ff6c7a3ull},
      {100e3, 0x9E3779B97F4A7C15ull, 20000, 0xad6ce8c4f2630117ull},
  };
  for (const auto& g : golden) {
    LfsrRateSource src{g.rate_hz, Frequency::mhz(30.0), 128,
                       static_cast<std::uint32_t>(g.seed),
                       static_cast<std::uint32_t>(g.seed >> 32)};
    const auto events = take(src, g.events);
    EXPECT_EQ(stream_digest(events), g.digest)
        << "rate " << g.rate_hz << " seed " << g.seed << std::hex
        << " got 0x" << stream_digest(events);
  }
}

// The table log against the std::log expression on every word the 24-bit
// interval register can yield, at each non-zero Fig. 8 rate, the
// ScenarioBuilder LFSR phases' rates (300 kevt/s is also a Fig. 8 rate),
// and both ends of the threshold range: threshold 1 and p = 1/2.
TEST(LfsrRate, CheapLogMatchesStdLogOnEveryWord) {
  const double rates[] = {10,    30,    100,   300,   1e3,   3e3, 10e3,
                          30e3,  100e3, 300e3, 550e3, 800e3, 2e3, 1.0,
                          15e6};
  constexpr std::uint32_t kWords = 1u << 24;
  for (const double rate : rates) {
    const LfsrRateSource src{rate, Frequency::mhz(30.0), 128, 1, 0};
    std::uint64_t mismatches = 0;
    std::uint32_t first = 0;
    for (std::uint32_t w = 0; w < kWords; ++w) {
      if (src.cycles(w) != src.cycles_std_log(w)) {
        if (mismatches++ == 0) first = w;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "rate " << rate << ": first at word " << first
                              << ", " << src.cycles(first) << " vs "
                              << src.cycles_std_log(first);
  }
}

TEST(LfsrRate, RejectsRatesOutsideTheGeneratorClock) {
  const Frequency clock = Frequency::mhz(30.0);
  for (const double rate : {0.0, -5.0, 30e6, 45e6, std::nan("")}) {
    EXPECT_THROW((LfsrRateSource{rate, clock, 128, 1, 0}),
                 std::invalid_argument)
        << "rate " << rate;
  }
  EXPECT_NO_THROW((LfsrRateSource{29.9e6, clock, 128, 1, 0}));
}

TEST(LfsrRate, GoldenScenarioDigest) {
  ScenarioBuilder sb{128, 7};
  sb.silence(1_ms)
      .add("noise", PhaseKind::kLfsr, 300e3, 20_ms)
      .poisson("speech", 50e3, 5_ms)
      .add("tail", PhaseKind::kLfsr, 2e3, 100_ms);
  const auto events = sb.build();
  EXPECT_EQ(stream_digest(events), 0xb84e0324646f7075ull)
      << std::hex << "got 0x" << stream_digest(events);
}

TEST(Burst, SilentDuringIdleWindows) {
  const Time active = 10_ms, idle = 40_ms;
  BurstSource src{50e3, active, idle, 64, 5};
  const auto events = take(src, 5000);
  const Time cycle = active + idle;
  for (const auto& ev : events) {
    const Time phase = ev.time % cycle;
    EXPECT_LT(phase, active);
  }
}

TEST(Burst, AverageRateIsDutyCycled) {
  BurstSource src{100e3, 10_ms, 90_ms, 64, 8};
  const auto events = take_until(src, 2_sec);
  // Duty cycle 10 %: average rate ~10 kevt/s over the long run.
  EXPECT_NEAR(static_cast<double>(events.size()) / 2.0, 10e3, 1500.0);
}

TEST(TraceSource, ReplaysExactly) {
  aer::EventStream stream{{1, 10_ns}, {2, 30_ns}};
  TraceSource src{stream};
  EXPECT_EQ(take(src, 10), stream);
  EXPECT_FALSE(src.next().has_value());
}

TEST(Merge, InterleavesSorted) {
  std::vector<std::unique_ptr<SpikeSource>> sources;
  sources.push_back(std::make_unique<RegularSource>(10_us, 1, Time::zero()));
  sources.push_back(std::make_unique<RegularSource>(15_us, 1, 2_us));
  MergeSource merged{std::move(sources)};
  const auto events = take(merged, 50);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time);
  }
}

TEST(Merge, ExhaustsFiniteSources) {
  std::vector<std::unique_ptr<SpikeSource>> sources;
  sources.push_back(
      std::make_unique<TraceSource>(aer::EventStream{{1, 1_us}, {1, 3_us}}));
  sources.push_back(
      std::make_unique<TraceSource>(aer::EventStream{{2, 2_us}}));
  MergeSource merged{std::move(sources)};
  const auto events = take(merged, 10);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].address, 1);
  EXPECT_EQ(events[1].address, 2);
  EXPECT_EQ(events[2].address, 1);
}

using MakeSource = std::function<std::unique_ptr<SpikeSource>()>;

aer::EventStream draw_by_next(SpikeSource& source, std::size_t n) {
  aer::EventStream out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto ev = source.next();
    if (!ev) break;
    out.push_back(*ev);
  }
  return out;
}

/// Up to `n` events through fill() in `chunk`-event calls.
aer::EventStream draw_by_fill(SpikeSource& source, std::size_t n,
                              std::size_t chunk) {
  aer::EventStream out;
  std::vector<aer::Event> buf(chunk);
  while (out.size() < n) {
    const std::size_t want = std::min(chunk, n - out.size());
    const std::size_t got = source.fill(std::span{buf}.first(want));
    EXPECT_LE(got, want);
    out.insert(out.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(got));
    if (got < want) break;
  }
  return out;
}

aer::EventStream poisson_trace(std::size_t n, std::uint64_t seed) {
  PoissonSource src{20e3, 64, seed};
  return take(src, n);
}

TEST(Gen, FillMatchesNext) {
  const std::pair<const char*, MakeSource> sources[] = {
      {"poisson", [] { return std::make_unique<PoissonSource>(50e3, 64, 11); }},
      {"regular",
       [] { return std::make_unique<RegularSource>(7_us, 5, 3_us); }},
      {"lfsr",
       [] {
         return std::make_unique<LfsrRateSource>(300e3, Frequency::mhz(30.0),
                                                 128, 0xACE1u, 0x1234u);
       }},
      {"burst",
       [] {
         return std::make_unique<BurstSource>(100e3, 1_ms, 4_ms, 64, 3);
       }},
      {"trace",
       [] { return std::make_unique<TraceSource>(poisson_trace(5000, 4)); }},
      {"merge",
       [] {
         std::vector<std::unique_ptr<SpikeSource>> parts;
         parts.push_back(std::make_unique<TraceSource>(poisson_trace(3000, 5)));
         parts.push_back(std::make_unique<TraceSource>(poisson_trace(2500, 6)));
         return std::make_unique<MergeSource>(std::move(parts));
       }},
  };
  constexpr std::size_t kDraw = 10000;  // more than trace and merge hold
  for (const auto& [name, make] : sources) {
    SCOPED_TRACE(name);
    auto ref_source = make();
    const aer::EventStream ref = draw_by_next(*ref_source, kDraw);
    const bool finite = ref.size() < kDraw;
    for (const std::size_t chunk : {1u, 7u, 4096u}) {
      SCOPED_TRACE("chunk " + std::to_string(chunk));
      auto source = make();
      EXPECT_EQ(draw_by_fill(*source, kDraw, chunk), ref);
      if (finite) {
        std::vector<aer::Event> buf(chunk);
        EXPECT_EQ(source->fill(buf), 0u);
        EXPECT_FALSE(source->next().has_value());
      }
    }
    // next() continues the sequence a fill() left off, and back again.
    auto source = make();
    aer::EventStream mixed = draw_by_fill(*source, 5, 7);
    for (int i = 0; i < 3; ++i) mixed.push_back(*source->next());
    const aer::EventStream rest = draw_by_fill(*source, kDraw - 8, 4096);
    mixed.insert(mixed.end(), rest.begin(), rest.end());
    EXPECT_EQ(mixed, ref);
    // take() goes through fill() and returns the short count too.
    auto taken = make();
    EXPECT_EQ(take(*taken, kDraw), ref);
  }
}

TEST(TakeUntil, StopsBeforeEnd) {
  RegularSource src{10_us, 2, Time::zero()};
  const auto events = take_until(src, 35_us);
  EXPECT_EQ(events.size(), 4u);  // 0, 10, 20, 30 us
}

}  // namespace
}  // namespace aetr::gen
