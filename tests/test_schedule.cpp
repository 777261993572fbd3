// Tests for the closed-form sampling schedule — the heart of the paper's
// Fig. 1 algorithm. Includes the Fig. 2 waveform check (Ndiv=3, theta=8)
// and property sweeps proving the quantisation bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "clockgen/schedule.hpp"
#include "util/reciprocal.hpp"
#include "util/rng.hpp"

namespace aetr::clockgen {
namespace {

using namespace time_literals;

ScheduleConfig fig2_config() {
  ScheduleConfig cfg;
  cfg.tmin = 100_ns;  // arbitrary round unit for readability
  cfg.theta_div = 8;
  cfg.n_div = 3;
  return cfg;
}

TEST(Schedule, LevelStartsFollowGeometricSeries) {
  const SamplingSchedule s{fig2_config()};
  EXPECT_EQ(s.level_start(0), Time::zero());
  EXPECT_EQ(s.level_start(1), 800_ns);    // 8 cycles @ 100 ns
  EXPECT_EQ(s.level_start(2), 2400_ns);   // + 8 @ 200 ns
  EXPECT_EQ(s.level_start(3), 5600_ns);   // + 8 @ 400 ns
  EXPECT_EQ(s.awake_span(), 12000_ns);    // + 8 @ 800 ns -> shutdown
}

TEST(Schedule, PeriodDoublesPerLevel) {
  const SamplingSchedule s{fig2_config()};
  EXPECT_EQ(s.period_of_level(0), 100_ns);
  EXPECT_EQ(s.period_of_level(1), 200_ns);
  EXPECT_EQ(s.period_of_level(2), 400_ns);
  EXPECT_EQ(s.period_of_level(3), 800_ns);
}

TEST(Schedule, Fig2EdgePattern) {
  // Reproduces the Fig. 2 waveform: theta_div = 8, N_div = 3. Eight edges
  // per level, each level half the frequency, then silence.
  const SamplingSchedule s{fig2_config()};
  const auto edges = s.enumerate_edges(1_ms);
  // Levels 0..3, 8 edges each, minus the shutdown instant, plus edge 0.
  ASSERT_EQ(edges.size(), 32u);
  // First edges of each level.
  EXPECT_EQ(edges[0].at, 0_ns);
  EXPECT_EQ(edges[0].level, 0u);
  EXPECT_EQ(edges[8].at, 800_ns);
  EXPECT_EQ(edges[8].level, 1u);
  EXPECT_EQ(edges[16].at, 2400_ns);
  EXPECT_EQ(edges[16].level, 2u);
  EXPECT_EQ(edges[24].at, 5600_ns);
  EXPECT_EQ(edges[24].level, 3u);
  // Last edge one slow period before shutdown; no edge at/after 12 us.
  EXPECT_EQ(edges.back().at, 11200_ns);
  // Spacing doubles across the pattern. A boundary edge closes the *old*
  // period (the FSM doubles Tsample at that instant), so each gap equals
  // the period of the level the previous edge ran at.
  for (std::size_t i = 1; i < edges.size(); ++i) {
    const Time spacing = edges[i].at - edges[i - 1].at;
    EXPECT_EQ(spacing, s.period_of_level(edges[i - 1].level));
  }
}

TEST(Schedule, LevelAtAndAsleep) {
  const SamplingSchedule s{fig2_config()};
  EXPECT_EQ(s.level_at(0_ns), 0u);
  EXPECT_EQ(s.level_at(799_ns), 0u);
  EXPECT_EQ(s.level_at(800_ns), 1u);
  EXPECT_EQ(s.level_at(5600_ns), 3u);
  EXPECT_FALSE(s.is_asleep_at(11999_ns));
  EXPECT_TRUE(s.is_asleep_at(12000_ns));
}

TEST(Schedule, CounterTracksElapsedTminUnits) {
  const SamplingSchedule s{fig2_config()};
  // Counter value at any edge equals elapsed / Tmin exactly.
  for (const auto& e : s.enumerate_edges(1_ms)) {
    EXPECT_EQ(s.counter_at_edge(e.at),
              static_cast<std::uint64_t>(e.at / Time::ns(100)));
  }
  EXPECT_EQ(s.saturation_ticks(), 120u);
}

TEST(Schedule, FirstEdgeQuantisesUp) {
  const SamplingSchedule s{fig2_config()};
  EXPECT_EQ(s.first_edge_at_or_after(1_ns), 100_ns);
  EXPECT_EQ(s.first_edge_at_or_after(100_ns), 100_ns);  // exact edge
  EXPECT_EQ(s.first_edge_at_or_after(801_ns), 1000_ns); // level 1 grid
  EXPECT_EQ(s.first_edge_at_or_after(11201_ns), Time::max());  // sleeps first
  EXPECT_EQ(s.first_edge_at_or_after(20_ms), Time::max());
}

TEST(Schedule, CyclesUntilCountsEdges) {
  const SamplingSchedule s{fig2_config()};
  EXPECT_EQ(s.cycles_until(800_ns), 8u);
  EXPECT_EQ(s.cycles_until(850_ns), 8u);
  EXPECT_EQ(s.cycles_until(1000_ns), 9u);
  EXPECT_EQ(s.cycles_until(2400_ns), 16u);
  EXPECT_EQ(s.cycles_until(1_sec), 31u);  // asleep: 4*8 - 1
}

TEST(Schedule, MeasureExactInterval) {
  const SamplingSchedule s{fig2_config()};
  const auto m = s.measure(450_ns);
  EXPECT_EQ(m.sample_edge, 500_ns);
  EXPECT_EQ(m.ticks, 5u);
  EXPECT_FALSE(m.saturated);
}

TEST(Schedule, MeasureAcrossDivision) {
  const SamplingSchedule s{fig2_config()};
  // 1.3 us falls in level 1 (200 ns grid): next edge at 1.4 us -> 14 ticks.
  const auto m = s.measure(1300_ns);
  EXPECT_EQ(m.sample_edge, 1400_ns);
  EXPECT_EQ(m.ticks, 14u);
}

TEST(Schedule, MeasureWithSyncEdges) {
  const SamplingSchedule s{fig2_config()};
  const auto m = s.measure(450_ns, 2);
  EXPECT_EQ(m.sample_edge, 700_ns);  // 2 extra edges at 100 ns
  EXPECT_EQ(m.ticks, 7u);
}

TEST(Schedule, MeasureSaturatedAfterSleep) {
  const SamplingSchedule s{fig2_config()};
  const auto m = s.measure(50_us, 2, 100_ns);
  EXPECT_TRUE(m.saturated);
  EXPECT_EQ(m.ticks, 120u);
  // Wakes at request + latency; first edge one Tmin later, then 2 sync
  // edges at Tmin.
  EXPECT_EQ(m.sample_edge, 50_us + 100_ns + 300_ns);
}

TEST(Schedule, MeasureInFinalPeriodBeforeShutdown) {
  const SamplingSchedule s{fig2_config()};
  // Request lands between the last edge (11.2 us) and shutdown (12 us):
  // the pending request keeps the clock alive; the tag is saturated.
  const auto m = s.measure(11500_ns);
  EXPECT_TRUE(m.saturated);
  EXPECT_GE(m.sample_edge, 11500_ns);
}

TEST(Schedule, DivideDisabledIsConstantRate) {
  ScheduleConfig cfg = fig2_config();
  cfg.divide_enabled = false;
  const SamplingSchedule s{cfg};
  EXPECT_EQ(s.awake_span(), Time::max());
  EXPECT_FALSE(s.is_asleep_at(1_sec));
  const auto m = s.measure(1_ms);
  EXPECT_EQ(m.ticks, 10000u);
  EXPECT_FALSE(m.saturated);
  EXPECT_EQ(s.cycles_until(1_ms), 10000u);
}

TEST(Schedule, ShutdownDisabledDividesForever) {
  ScheduleConfig cfg = fig2_config();
  cfg.shutdown_enabled = false;
  const SamplingSchedule s{cfg};
  EXPECT_EQ(s.awake_span(), Time::max());
  const auto m = s.measure(1_ms);
  EXPECT_FALSE(m.saturated);
  // Quantised to the slowest (800 ns) grid beyond the last division.
  EXPECT_EQ(m.sample_edge % 800_ns, (5600_ns) % 800_ns);
}

TEST(Schedule, InvalidConfigThrows) {
  ScheduleConfig cfg;
  cfg.theta_div = 0;
  EXPECT_THROW(SamplingSchedule{cfg}, std::invalid_argument);
  cfg = ScheduleConfig{};
  cfg.tmin = Time::zero();
  EXPECT_THROW(SamplingSchedule{cfg}, std::invalid_argument);
  cfg = ScheduleConfig{};
  cfg.n_div = 31;
  EXPECT_THROW(SamplingSchedule{cfg}, std::invalid_argument);
  // The shutdown instant tmin * theta_div * (2^(n_div + 1) - 1) must fit in
  // a Time: 1 ms * 4096 * (2^31 - 1) does not.
  cfg = ScheduleConfig{};
  cfg.tmin = Time::ms(1.0);
  cfg.theta_div = 4096;
  cfg.n_div = 30;
  EXPECT_THROW(SamplingSchedule{cfg}, std::invalid_argument);
  cfg.n_div = 8;
  EXPECT_NO_THROW(SamplingSchedule{cfg});
}

// ---------------------------------------------------------------------------
// Property sweeps (parameterized over theta_div).

class ScheduleProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ScheduleProperty, MeasurementNeverUnderestimatesByMoreThanOneStep) {
  ScheduleConfig cfg;
  cfg.tmin = Time::ns(1e3 / 15.0);
  cfg.theta_div = GetParam();
  cfg.n_div = 8;
  const SamplingSchedule s{cfg};
  Xoshiro256StarStar rng{GetParam()};
  for (int i = 0; i < 20000; ++i) {
    const Time delta = Time::us(rng.uniform(0.1, 3000.0));
    const auto m = s.measure(delta);
    if (m.saturated) continue;
    const Time measured = cfg.tmin * static_cast<Time::Rep>(m.ticks);
    // The sample edge is the first edge at/after the request, so the
    // measurement rounds *up* by at most one current period.
    EXPECT_GE(measured + Time::ps(2), delta);
    const Time step = s.period_of_level(s.level_at(delta));
    EXPECT_LE((measured - delta).count_ps(), step.count_ps() + 2);
  }
}

TEST_P(ScheduleProperty, RelativeErrorBelowAnalyticBound) {
  ScheduleConfig cfg;
  cfg.tmin = Time::ns(1e3 / 15.0);
  cfg.theta_div = GetParam();
  cfg.n_div = 8;
  const SamplingSchedule s{cfg};
  const double bound = 2.0 / static_cast<double>(GetParam());
  Xoshiro256StarStar rng{GetParam() * 17};
  for (int i = 0; i < 20000; ++i) {
    // Restrict to intervals past the first division (where the bound
    // applies) and below saturation.
    const double lo = cfg.tmin.to_sec() * GetParam() * 1.05;
    // Stay clear of the final slow period, where a pending request races
    // the shutdown instant and the tag saturates by design.
    const double hi =
        (s.awake_span() - s.period_of_level(cfg.n_div) * 2).to_sec();
    const Time delta = Time::sec(rng.uniform(lo, hi));
    const auto m = s.measure(delta);
    ASSERT_FALSE(m.saturated);
    const Time measured = cfg.tmin * static_cast<Time::Rep>(m.ticks);
    const double err = std::abs((measured - delta).to_sec()) / delta.to_sec();
    EXPECT_LE(err, bound * 1.02) << "delta=" << delta.to_string();
  }
}

TEST_P(ScheduleProperty, CounterMonotoneAlongEdges) {
  ScheduleConfig cfg;
  cfg.tmin = 50_ns;
  cfg.theta_div = GetParam();
  cfg.n_div = 5;
  const SamplingSchedule s{cfg};
  const auto edges = s.enumerate_edges(s.awake_span());
  std::uint64_t prev = 0;
  for (std::size_t i = 1; i < edges.size(); ++i) {
    const auto c = s.counter_at_edge(edges[i].at);
    EXPECT_GT(c, prev);
    // The increment equals the step of the level the *previous* edge ran
    // at (a boundary edge closes the old period).
    EXPECT_EQ(c - prev, std::uint64_t{1} << edges[i - 1].level);
    prev = c;
  }
}

INSTANTIATE_TEST_SUITE_P(ThetaSweep, ScheduleProperty,
                         ::testing::Values(8u, 16u, 32u, 64u, 128u));

// ---------------------------------------------------------------------------
// The capture kernel against its definition.

/// measure() spelt out edge by edge from the public closed forms: the
/// first edge at or after the request, then one more per synchroniser
/// stage (first_edge_at_or_after just past the previous one), latched
/// through counter_at_edge. Running out of edges is the shutdown race,
/// which keeps the clock alive at the slowest period.
SamplingSchedule::Measurement reference_measure(const SamplingSchedule& s,
                                                Time delta,
                                                std::uint32_t sync_edges,
                                                Time wake) {
  const ScheduleConfig& cfg = s.config();
  const Time slowest =
      s.period_of_level(cfg.divide_enabled ? cfg.n_div : 0);
  SamplingSchedule::Measurement m;
  if (s.is_asleep_at(delta)) {
    m.sample_edge =
        delta + wake + cfg.tmin * static_cast<Time::Rep>(sync_edges + 1);
    m.ticks = s.saturation_ticks();
    m.saturated = true;
    return m;
  }
  Time edge = s.first_edge_at_or_after(delta);
  for (std::uint32_t i = 0; i <= sync_edges; ++i) {
    if (i > 0) edge = s.first_edge_at_or_after(edge + Time::ps(1));
    if (edge == Time::max()) {
      m.sample_edge =
          s.awake_span() + slowest * static_cast<Time::Rep>(sync_edges - i);
      m.ticks = s.saturation_ticks();
      m.saturated = true;
      return m;
    }
  }
  m.sample_edge = edge;
  m.ticks = s.counter_at_edge(edge);
  m.saturated = m.ticks >= s.saturation_ticks();
  return m;
}

TEST(Schedule, MeasureMatchesEdgeByEdgeReference) {
  Xoshiro256StarStar rng{0xCA97u};
  const Time wake = 100_ns;
  std::size_t cases = 0;
  for (const bool divide : {true, false}) {
    for (const bool shutdown : {true, false}) {
      for (const std::uint32_t theta : {1u, 16u, 64u}) {
        for (const std::uint32_t n_div : {0u, 8u}) {
          ScheduleConfig cfg;
          cfg.tmin = Time::ps(66'667);  // 15 MHz, an odd picosecond count
          cfg.theta_div = theta;
          cfg.n_div = n_div;
          cfg.divide_enabled = divide;
          cfg.shutdown_enabled = shutdown;
          const SamplingSchedule s{cfg};
          const std::uint32_t top = divide ? n_div : 0;
          // Every level boundary and the shutdown instant, +-1 ps, then
          // random deltas up to 20 % past the awake span (or past the
          // top level's start plus a few dozen slow periods).
          std::vector<Time> deltas{Time::zero(), Time::ps(1)};
          for (std::uint32_t k = 1; k <= top + 1; ++k) {
            const Time b = s.level_start(k);
            if (b == Time::max()) continue;
            for (const std::int64_t d : {-1, 0, 1}) {
              deltas.push_back(b + Time::ps(d));
            }
          }
          const Time horizon =
              s.awake_span() != Time::max()
                  ? s.awake_span() + s.awake_span() / 5
                  : s.level_start(top) +
                        s.period_of_level(top) *
                            static_cast<Time::Rep>(theta * 4 + 40);
          for (int i = 0; i < 400; ++i) {
            deltas.push_back(Time::ps(static_cast<Time::Rep>(
                rng.uniform_int(static_cast<std::uint64_t>(
                    horizon.count_ps())))));
          }
          for (const Time delta : deltas) {
            for (std::uint32_t sync = 0; sync <= 3; ++sync) {
              const auto m = s.measure(delta, sync, wake);
              const auto ref = reference_measure(s, delta, sync, wake);
              const std::string what =
                  "divide=" + std::to_string(divide) +
                  " shutdown=" + std::to_string(shutdown) +
                  " theta=" + std::to_string(theta) +
                  " n_div=" + std::to_string(n_div) +
                  " sync=" + std::to_string(sync) +
                  " delta=" + std::to_string(delta.count_ps()) + "ps";
              ASSERT_EQ(m.cycles, s.cycles_until(m.sample_edge)) << what;
              ASSERT_EQ(m.sample_edge, ref.sample_edge) << what;
              ASSERT_EQ(m.ticks, ref.ticks) << what;
              ASSERT_EQ(m.saturated, ref.saturated) << what;
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 24u * 400u * 4u);
}

// ---------------------------------------------------------------------------
// The locator against the schedule's earlier formulation: a scan up the
// level starts and one hardware division per query. Kept here, verbatim in
// substance, as an oracle that shares no code with SamplingSchedule.

class ScanSchedule {
 public:
  explicit ScanSchedule(const ScheduleConfig& cfg) : cfg_{cfg} {
    top_ = cfg.divide_enabled ? cfg.n_div : 0;
    const Time dwell = cfg.tmin * static_cast<Time::Rep>(cfg.theta_div);
    for (std::uint32_t k = 0; k <= top_; ++k) {
      starts_.push_back(dwell *
                        static_cast<Time::Rep>((std::uint64_t{1} << k) - 1));
    }
    starts_.push_back(
        cfg.divide_enabled && cfg.shutdown_enabled
            ? dwell * static_cast<Time::Rep>(
                          (std::uint64_t{1} << (top_ + 1)) - 1)
            : Time::max());
    sat_ = awake() == Time::max()
               ? ~std::uint64_t{0}
               : static_cast<std::uint64_t>(awake() / cfg.tmin);
    asleep_cycles_ =
        static_cast<std::uint64_t>(cfg.theta_div) * (top_ + 1) - 1;
  }

  [[nodiscard]] Time awake() const { return starts_[top_ + 1]; }
  [[nodiscard]] Time period(std::uint32_t k) const {
    return cfg_.tmin * static_cast<Time::Rep>(std::uint64_t{1} << k);
  }
  [[nodiscard]] std::uint32_t level_at(Time e) const {
    std::uint32_t k = 0;
    while (k < top_ && e >= starts_[k + 1]) ++k;
    return k;
  }
  [[nodiscard]] bool is_asleep_at(Time e) const { return e >= awake(); }
  [[nodiscard]] Time first_edge_at_or_after(Time e) const {
    if (e <= Time::zero()) return Time::zero();
    if (is_asleep_at(e)) return Time::max();
    const std::uint32_t k = level_at(e);
    const Time s = starts_[k];
    const Time p = period(k);
    const Time edge = s + p * ceil_div((e - s).count_ps(), p.count_ps());
    if (edge >= starts_[k + 1]) {
      return k < top_ ? starts_[k + 1] : Time::max();
    }
    return edge;
  }
  [[nodiscard]] std::uint64_t counter_at_edge(Time edge) const {
    if (edge >= awake()) return sat_;
    const std::uint32_t k = level_at(edge);
    const auto i = static_cast<std::uint64_t>((edge - starts_[k]) / period(k));
    const std::uint64_t base = static_cast<std::uint64_t>(cfg_.theta_div) *
                               ((std::uint64_t{1} << k) - 1);
    return std::min(base + i * (std::uint64_t{1} << k), sat_);
  }
  [[nodiscard]] std::uint64_t cycles_until(Time e) const {
    if (e <= Time::zero()) return 0;
    if (is_asleep_at(e)) return asleep_cycles_;
    const std::uint32_t k = level_at(e);
    return static_cast<std::uint64_t>(cfg_.theta_div) * k +
           static_cast<std::uint64_t>((e - starts_[k]) / period(k));
  }
  /// The earlier measure(): first edge by one division, then one edge at a
  /// time through the synchroniser.
  [[nodiscard]] SamplingSchedule::Measurement measure(Time delta,
                                                      std::uint32_t sync,
                                                      Time wake) const {
    SamplingSchedule::Measurement m;
    const auto saturate = [&](Time edge) {
      m.sample_edge = edge;
      m.ticks = sat_;
      m.saturated = true;
      m.cycles = asleep_cycles_;
      return m;
    };
    if (is_asleep_at(delta)) {
      return saturate(delta + wake +
                      cfg_.tmin * static_cast<Time::Rep>(sync + 1));
    }
    std::uint32_t k = 0;
    Time edge = Time::zero();
    std::uint64_t idx = 0;
    if (delta > Time::zero()) {
      k = level_at(delta);
      const Time s = starts_[k];
      const Time p = period(k);
      idx = static_cast<std::uint64_t>(
          ceil_div((delta - s).count_ps(), p.count_ps()));
      edge = s + p * static_cast<Time::Rep>(idx);
      if (edge >= starts_[k + 1]) {
        if (k == top_) {
          return saturate(awake() +
                          period(top_) * static_cast<Time::Rep>(sync));
        }
        edge = starts_[k + 1];
        ++k;
        idx = 0;
      }
    }
    for (std::uint32_t i = 0; i < sync; ++i) {
      Time next = edge + period(k);
      if (next >= starts_[k + 1]) {
        if (k == top_) {
          return saturate(awake() +
                          period(top_) * static_cast<Time::Rep>(sync - i - 1));
        }
        next = starts_[k + 1];
        ++k;
        idx = 0;
      } else {
        ++idx;
      }
      edge = next;
    }
    m.sample_edge = edge;
    const std::uint64_t base = static_cast<std::uint64_t>(cfg_.theta_div) *
                               ((std::uint64_t{1} << k) - 1);
    m.ticks = std::min(base + idx * (std::uint64_t{1} << k), sat_);
    m.saturated = m.ticks >= sat_;
    m.cycles = static_cast<std::uint64_t>(cfg_.theta_div) * k + idx;
    return m;
  }

 private:
  static Time::Rep ceil_div(Time::Rep a, Time::Rep b) {
    return (a + b - 1) / b;
  }

  ScheduleConfig cfg_;
  std::uint32_t top_{0};
  std::vector<Time> starts_;
  std::uint64_t sat_{0};
  std::uint64_t asleep_cycles_{0};
};

TEST(Schedule, LocatorMatchesScanAndDivideOracle) {
  Xoshiro256StarStar rng{0x10CA7E};
  std::size_t configs = 0;
  std::size_t cases = 0;
  for (const Time::Rep tmin : {1, 2, 3, 66'667, 1'000'003}) {
    for (const std::uint32_t theta : {1u, 2u, 3u, 16u, 64u, 100u, 255u}) {
      for (const std::uint32_t n_div : {0u, 1u, 8u, 30u}) {
        for (const bool divide : {true, false}) {
          for (const bool shutdown : {true, false}) {
            ScheduleConfig cfg;
            cfg.tmin = Time::ps(tmin);
            cfg.theta_div = theta;
            cfg.n_div = n_div;
            cfg.divide_enabled = divide;
            cfg.shutdown_enabled = shutdown;
            const std::uint32_t top = divide ? n_div : 0;
            // The range check: tmin * theta * (2^(top+1) - 1) is a Time.
            const std::uint64_t last_factor =
                theta * ((std::uint64_t{1} << (top + 1)) - 1);
            if (static_cast<std::uint64_t>(tmin) >
                static_cast<std::uint64_t>(Time::max().count_ps()) /
                    last_factor) {
              EXPECT_THROW(SamplingSchedule{cfg}, std::invalid_argument);
              continue;
            }
            const SamplingSchedule s{cfg};
            const ScanSchedule ref{cfg};
            ++configs;
            // Every level start and the shutdown instant, +-1 ps and
            // +-Tmin; random deltas across the awake span and past it;
            // the largest delta whose sample edge is still a Time.
            const Time slowest = ref.period(top);
            const Time wake_max = 100_ns;
            const Time largest =
                Time::max() - wake_max - slowest * 4 - Time::ps(1);
            std::vector<Time> deltas{Time::zero(), Time::ps(1), largest};
            for (std::uint32_t k = 0; k <= top + 1; ++k) {
              const Time b = s.level_start(k);
              ASSERT_EQ(b, k <= top ? ref.period(0) * static_cast<Time::Rep>(
                                          theta * ((std::uint64_t{1} << k) - 1))
                                    : ref.awake());
              if (b == Time::max()) continue;
              for (const Time d : {Time::ps(-1), Time::zero(), Time::ps(1),
                                   Time::zero() - cfg.tmin, cfg.tmin}) {
                if (b + d >= Time::zero()) deltas.push_back(b + d);
              }
            }
            const Time span = ref.awake() != Time::max()
                                  ? ref.awake() + ref.awake() / 4
                                  : s.level_start(top) + slowest * 1000;
            for (int i = 0; i < 64; ++i) {
              deltas.push_back(Time::ps(static_cast<Time::Rep>(
                  rng.uniform_int(static_cast<std::uint64_t>(
                      std::min(span, largest).count_ps())))));
            }
            for (const Time delta : deltas) {
              const std::string what =
                  "tmin=" + std::to_string(tmin) +
                  " theta=" + std::to_string(theta) +
                  " n_div=" + std::to_string(n_div) +
                  " divide=" + std::to_string(divide) +
                  " shutdown=" + std::to_string(shutdown) +
                  " delta=" + std::to_string(delta.count_ps()) + "ps";
              ASSERT_EQ(s.is_asleep_at(delta), ref.is_asleep_at(delta))
                  << what;
              ASSERT_EQ(s.level_at(delta), ref.level_at(delta)) << what;
              ASSERT_EQ(s.cycles_until(delta), ref.cycles_until(delta))
                  << what;
              const Time edge = s.first_edge_at_or_after(delta);
              ASSERT_EQ(edge, ref.first_edge_at_or_after(delta)) << what;
              ASSERT_EQ(s.counter_at_edge(delta), ref.counter_at_edge(delta))
                  << what;
              if (edge != Time::max()) {
                ASSERT_EQ(s.counter_at_edge(edge), ref.counter_at_edge(edge))
                    << what;
                ASSERT_EQ(s.level_at(edge), ref.level_at(edge)) << what;
              }
              for (std::uint32_t sync = 0; sync <= 3; ++sync) {
                for (const Time wake : {Time::zero(), wake_max}) {
                  const auto m = s.measure(delta, sync, wake);
                  const auto r = ref.measure(delta, sync, wake);
                  ASSERT_EQ(m.sample_edge, r.sample_edge)
                      << what << " sync=" << sync;
                  ASSERT_EQ(m.ticks, r.ticks) << what << " sync=" << sync;
                  ASSERT_EQ(m.saturated, r.saturated)
                      << what << " sync=" << sync;
                  ASSERT_EQ(m.cycles, r.cycles) << what << " sync=" << sync;
                  ++cases;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(configs, 500u);
  EXPECT_GT(cases, configs * 8u * 70u);
}

TEST(Reciprocal, MatchesHardwareDivision) {
  Xoshiro256StarStar rng{0xD1D};
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 63) - 1;
  std::vector<std::uint64_t> divisors{1,       2,        3,
                                      7,       66'667,   1'000'003,
                                      1u << 31, kTop / 2, kTop / 2 + 1,
                                      kTop - 1, kTop};
  for (int i = 0; i < 64; ++i) {
    divisors.push_back(1 + rng.uniform_int(kTop));
    divisors.push_back(1 + (rng.next() >> (1 + rng.uniform_int(63))));
  }
  for (const std::uint64_t d : divisors) {
    const Reciprocal r{d};
    std::vector<std::uint64_t> numerators{0, d - 1, d, kTop};
    if (d <= kTop / 2) numerators.push_back(2 * d - 1);
    for (int i = 0; i < 256; ++i) {
      numerators.push_back(rng.uniform_int(kTop) + 1);
      numerators.push_back(rng.next() >> (1 + rng.uniform_int(63)));
    }
    for (const std::uint64_t n : numerators) {
      ASSERT_EQ(r.divide(n), n / d) << n << " / " << d;
    }
  }
}

}  // namespace
}  // namespace aetr::clockgen
