// Tests for the scenario builder and the statistical conformance of the
// stimulus generators (chi-square / KS goodness of fit).
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "gen/scenario.hpp"
#include "gen/sources.hpp"
#include "stats_tests.hpp"

namespace aetr::gen {
namespace {

using namespace time_literals;

TEST(Scenario, PhasesResolveStartsAndDuration) {
  ScenarioBuilder sb;
  sb.silence(100_ms)
      .poisson("speech", 50e3, 200_ms)
      .add("noise", PhaseKind::kLfsr, 300e3, 50_ms);
  const auto events = sb.build();
  ASSERT_EQ(sb.phases().size(), 3u);
  EXPECT_EQ(sb.phases()[0].start, Time::zero());
  EXPECT_EQ(sb.phases()[1].start, 100_ms);
  EXPECT_EQ(sb.phases()[2].start, 300_ms);
  EXPECT_EQ(sb.total_duration(), 350_ms);
  EXPECT_FALSE(events.empty());
}

TEST(Scenario, EventsConfinedToTheirPhases) {
  ScenarioBuilder sb;
  sb.silence(50_ms).poisson("a", 20e3, 100_ms).silence(50_ms);
  const auto events = sb.build();
  for (const auto& ev : events) {
    EXPECT_GE(ev.time, 50_ms);
    EXPECT_LT(ev.time, 150_ms + 1_us);  // seam adjustment tolerance
  }
  EXPECT_NEAR(static_cast<double>(events.size()), 2000.0, 150.0);
}

TEST(Scenario, StreamIsStrictlyOrdered) {
  ScenarioBuilder sb;
  sb.poisson("a", 100e3, 50_ms)
      .add("b", PhaseKind::kRegular, 50e3, 50_ms)
      .poisson("c", 200e3, 50_ms);
  const auto events = sb.build();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].time, events[i - 1].time);
  }
}

TEST(Scenario, PhaseOfLookup) {
  ScenarioBuilder sb;
  sb.silence(10_ms).poisson("x", 1e3, 10_ms);
  (void)sb.build();
  EXPECT_EQ(sb.phase_of(5_ms), 0u);
  EXPECT_EQ(sb.phase_of(15_ms), 1u);
  EXPECT_EQ(sb.phase_of(25_ms), static_cast<std::size_t>(-1));
}

TEST(Scenario, RejectsInvalidPhases) {
  ScenarioBuilder sb;
  EXPECT_THROW(sb.poisson("bad", 1e3, Time::zero()), std::invalid_argument);
  EXPECT_THROW(sb.add("bad", PhaseKind::kPoisson, 0.0, 1_ms),
               std::invalid_argument);
}

TEST(Scenario, DistinctPhaseSeedsDecorrelate) {
  ScenarioBuilder sb;
  sb.poisson("a", 10e3, 100_ms).poisson("b", 10e3, 100_ms);
  const auto events = sb.build();
  // The two phases must not replay the same addresses in the same order.
  const std::size_t half = events.size() / 2;
  int same = 0;
  for (std::size_t i = 0; i < 100 && half + i < events.size(); ++i) {
    same += events[i].address == events[half + i].address;
  }
  EXPECT_LT(same, 20);
}

// ---------------------------------------------------------------------------
// Goodness-of-fit for the generators themselves.

TEST(Goodness, PoissonIntervalsPassKsAgainstExponential) {
  PoissonSource src{10e3, 128, 99};
  const auto events = take(src, 20000);
  std::vector<double> intervals;
  for (std::size_t i = 1; i < events.size(); ++i) {
    intervals.push_back((events[i].time - events[i - 1].time).to_sec());
  }
  const double d = ks_exponential(intervals, 1e-4);
  EXPECT_LT(d, ks_critical_999(intervals.size()));
}

TEST(Goodness, PoissonAddressesUniformByChiSquare) {
  PoissonSource src{10e3, 64, 7};
  const auto events = take(src, 64000);
  std::vector<double> counts(64, 0.0);
  for (const auto& ev : events) counts[ev.address] += 1.0;
  EXPECT_LT(chi_square_uniform(counts), chi_square_critical_999(63));
}

TEST(Goodness, LfsrAddressesRoughlyUniform) {
  LfsrRateSource src{100e3, Frequency::mhz(30.0), 64, 0xACE1, 0xBEEF};
  const auto events = take(src, 64000);
  std::vector<double> counts(64, 0.0);
  for (const auto& ev : events) counts[ev.address] += 1.0;
  // An LFSR is not an RNG; allow a wider (but still bounded) statistic.
  EXPECT_LT(chi_square_uniform(counts), 4.0 * chi_square_critical_999(63));
}

TEST(Goodness, LfsrIntervalsGeometricViaChiSquare) {
  // Compare observed interval histogram (in generator-clock cycles)
  // against the geometric pmf.
  const double rate = 300e3;
  const double gen_hz = 30e6;
  LfsrRateSource src{rate, Frequency::mhz(30.0), 64, 0xACE1, 0xCAFE};
  const auto events = take(src, 50000);
  const double p = rate / gen_hz;
  const Time gen_period = Frequency::mhz(30.0).period();
  std::map<std::int64_t, double> hist;
  for (std::size_t i = 1; i < events.size(); ++i) {
    hist[(events[i].time - events[i - 1].time) / gen_period] += 1.0;
  }
  std::vector<double> observed, expected;
  const auto n = static_cast<double>(events.size() - 1);
  for (std::int64_t k = 1; k <= 300; ++k) {
    observed.push_back(hist.count(k) ? hist[k] : 0.0);
    expected.push_back(n * p * std::pow(1.0 - p, static_cast<double>(k - 1)));
  }
  EXPECT_LT(chi_square(observed, expected),
            2.0 * chi_square_critical_999(observed.size() - 1));
}

TEST(Goodness, XoshiroUniformityChiSquare) {
  Xoshiro256StarStar rng{123};
  std::vector<double> counts(100, 0.0);
  for (int i = 0; i < 200000; ++i) {
    counts[static_cast<std::size_t>(rng.uniform() * 100.0)] += 1.0;
  }
  EXPECT_LT(chi_square_uniform(counts), chi_square_critical_999(99));
}

}  // namespace
}  // namespace aetr::gen
