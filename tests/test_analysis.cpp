// Tests for the error-analysis module (the paper's Matlab-model equivalent):
// sweep behaviour across the three §5.1 regions, the analytic bound, and
// agreement between the algorithmic model and record scoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <string>
#include <vector>

#include "analysis/error.hpp"
#include "util/blob.hpp"

namespace aetr::analysis {
namespace {

using namespace time_literals;

clockgen::ScheduleConfig paper_cfg(std::uint32_t theta) {
  clockgen::ScheduleConfig cfg;
  cfg.tmin = Time::ns(1e3 / 15.0);
  cfg.theta_div = theta;
  cfg.n_div = 8;
  return cfg;
}

TEST(Sweep, ActiveRegionErrorBelowBound) {
  // Paper: for theta_div = 64 the average error stays "significantly below
  // the analytic 3 % bound" across the active region. That statement holds
  // for the time-weighted error; the per-event mean sits near the bound.
  const auto cfg = paper_cfg(64);
  for (double rate : {2e3, 10e3, 50e3, 200e3}) {
    const auto stats = sweep_error(cfg, rate, {.n_events = 3000, .seed = 3});
    EXPECT_LT(stats.weighted_rel_error(), 0.5 * analytic_error_bound(64))
        << "rate " << rate;
    EXPECT_LT(stats.mean_rel_error(), 1.2 * analytic_error_bound(64))
        << "rate " << rate;
    EXPECT_LT(stats.frac_saturated(), 0.05) << "rate " << rate;
  }
}

TEST(Sweep, InactiveRegionDominatedBySaturation) {
  const auto cfg = paper_cfg(64);
  const auto stats = sweep_error(cfg, 100.0, {.n_events = 1500, .seed = 5});
  // Awake span ~2.2 ms vs 10 ms mean interval: most tags saturate and the
  // error is large (paper: "the error is high as ... the interface is
  // essentially always off").
  EXPECT_GT(stats.frac_saturated(), 0.5);
  EXPECT_GT(stats.mean_rel_error(), 0.3);
}

TEST(Sweep, HighActivityErrorRisesAgain) {
  const auto cfg = paper_cfg(64);
  const auto mid = sweep_error(cfg, 100e3, {.n_events = 4000, .seed = 7});
  const auto high = sweep_error(cfg, 2e6, {.n_events = 4000, .seed = 7});
  // Near-Nyquist intervals push the error up at very high rates.
  EXPECT_GT(high.mean_rel_error(), 2.0 * mid.mean_rel_error());
  EXPECT_GT(high.sub_nyquist, high.events / 10);
}

TEST(Sweep, LargerThetaIsMoreAccurate) {
  // Paper Fig. 7b: "increasing theta_div improves overall accuracy".
  const double rate = 30e3;
  const auto e16 =
      sweep_error(paper_cfg(16), rate, {.n_events = 6000, .seed = 11});
  const auto e64 =
      sweep_error(paper_cfg(64), rate, {.n_events = 6000, .seed = 11});
  EXPECT_LT(e64.mean_rel_error(), e16.mean_rel_error());
}

TEST(Sweep, AccuracyAbove97PercentInActiveRegion) {
  // The abstract's headline: "accuracy above 97 % on timestamps".
  const auto cfg = paper_cfg(64);
  for (double rate : {5e3, 20e3, 100e3}) {
    const auto stats = sweep_error(cfg, rate, {.n_events = 5000, .seed = 13});
    EXPECT_GT(1.0 - stats.weighted_rel_error(), 0.97) << "rate " << rate;
  }
}

TEST(Sweep, CurveHasExpectedPoints) {
  const auto curve = sweep_error_curve(paper_cfg(32), 100.0, 2e6, 9,
                                       {.n_events = 300, .seed = 1});
  ASSERT_EQ(curve.size(), 9u);
  EXPECT_NEAR(curve.front().rate_hz, 100.0, 1e-6);
  EXPECT_NEAR(curve.back().rate_hz, 2e6, 1.0);
  // Log spacing: constant ratio between adjacent rates.
  const double ratio = curve[1].rate_hz / curve[0].rate_hz;
  for (std::size_t i = 2; i < curve.size(); ++i) {
    EXPECT_NEAR(curve[i].rate_hz / curve[i - 1].rate_hz, ratio, 1e-6);
  }
}

TEST(Regions, ClassificationMatchesPaperBoundaries) {
  const auto cfg = paper_cfg(64);
  EXPECT_EQ(classify_region(cfg, 100.0), Region::kInactive);
  EXPECT_EQ(classify_region(cfg, 10e3), Region::kActive);
  EXPECT_EQ(classify_region(cfg, 100e3), Region::kActive);
  // Paper: high-activity above ~550 kevt/s for theta_div = 64.
  EXPECT_EQ(classify_region(cfg, 450e3), Region::kActive);
  EXPECT_EQ(classify_region(cfg, 700e3), Region::kHighActivity);
}

TEST(Regions, NaiveModeAlwaysHighActivity) {
  auto cfg = paper_cfg(64);
  cfg.divide_enabled = false;
  EXPECT_EQ(classify_region(cfg, 100.0), Region::kHighActivity);
}

TEST(Regions, Names) {
  EXPECT_STREQ(to_string(Region::kInactive), "inactive");
  EXPECT_STREQ(to_string(Region::kActive), "active");
  EXPECT_STREQ(to_string(Region::kHighActivity), "high-activity");
}

TEST(Bound, MatchesPaperThreePercent) {
  EXPECT_NEAR(analytic_error_bound(64), 0.03125, 1e-9);
  EXPECT_NEAR(analytic_error_bound(32), 0.0625, 1e-9);
}

TEST(Sweep, DeterministicPerSeed) {
  const auto cfg = paper_cfg(32);
  const auto a = sweep_error(cfg, 10e3, {.n_events = 500, .seed = 21});
  const auto b = sweep_error(cfg, 10e3, {.n_events = 500, .seed = 21});
  EXPECT_DOUBLE_EQ(a.mean_rel_error(), b.mean_rel_error());
  EXPECT_EQ(a.saturated, b.saturated);
}

TEST(Sweep, SyncEdgesInflateErrorBoundedly) {
  // The 2-FF synchroniser delays both interval endpoints by two *current*
  // sampling periods. When consecutive intervals land at different division
  // levels the delays no longer cancel, so the effective bound grows from
  // ~2/theta to ~(2 + 2*sync)/theta — still bounded, and still small.
  const auto cfg = paper_cfg(64);
  const auto plain =
      sweep_error(cfg, 20e3, {.n_events = 4000, .seed = 31, .sync_edges = 0});
  const auto synced =
      sweep_error(cfg, 20e3, {.n_events = 4000, .seed = 31, .sync_edges = 2});
  EXPECT_GT(synced.mean_rel_error(), plain.mean_rel_error());
  EXPECT_LT(synced.mean_rel_error(), 3.2 * analytic_error_bound(64));
}

/// Bitwise equality of two doubles (EXPECT_EQ would also pass -0.0 == 0.0).
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_stats(const ErrorStats& a, const ErrorStats& b,
                       const std::string& what) {
  const auto ra = a.rel_error.state();
  const auto rb = b.rel_error.state();
  EXPECT_EQ(ra.n, rb.n) << what;
  EXPECT_EQ(bits(ra.mean), bits(rb.mean)) << what;
  EXPECT_EQ(bits(ra.m2), bits(rb.m2)) << what;
  EXPECT_EQ(bits(ra.min), bits(rb.min)) << what;
  EXPECT_EQ(bits(ra.max), bits(rb.max)) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.saturated, b.saturated) << what;
  EXPECT_EQ(a.sub_nyquist, b.sub_nyquist) << what;
  EXPECT_EQ(bits(a.abs_err_sec), bits(b.abs_err_sec)) << what;
  EXPECT_EQ(bits(a.true_sec), bits(b.true_sec)) << what;
  EXPECT_EQ(bits(a.abs_err_unsat_sec), bits(b.abs_err_unsat_sec)) << what;
  EXPECT_EQ(bits(a.true_unsat_sec), bits(b.true_unsat_sec)) << what;
}

// RecordScorer is analyze_records() in pieces: folding a capture log split
// at arbitrary points — with a save/restore round trip at one of them —
// gives bitwise the stats of scoring the whole log at once.
TEST(RecordScorer, SplitFoldEqualsWholeLog) {
  const Time tick = Time::ns(1e3 / 15.0);
  const Time saturation = tick * 4096;
  std::mt19937_64 rng{0x5C0AEu};
  std::vector<frontend::CaptureRecord> log;
  Time t = Time::zero();
  for (int i = 0; i < 5000; ++i) {
    // Repeated instants, sub-tick gaps and long silences all occur.
    const std::uint64_t gap = rng() % 8 == 0 ? 0 : rng() % 400'000'000;
    t += Time::ps(static_cast<Time::Rep>(gap));
    const auto addr = static_cast<std::uint16_t>(rng() % 1024);
    const bool saturated = rng() % 16 == 0;
    frontend::CaptureRecord rec;
    rec.request = aer::Event{addr, t};
    rec.sample_edge = t;
    rec.word = saturated ? aer::AetrWord::saturated(addr)
                         : aer::AetrWord::make(addr, rng() % 4096);
    log.push_back(rec);
  }
  const ErrorStats whole = analyze_records(log, tick, saturation);
  ASSERT_EQ(whole.events, log.size() - 1);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::size_t> cuts{0, log.size()};
    for (int k = 0; k < trial; ++k) cuts.push_back(rng() % log.size());
    std::sort(cuts.begin(), cuts.end());
    RecordScorer scorer{tick, saturation};
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      scorer.add({log.begin() + static_cast<std::ptrdiff_t>(cuts[c]),
                  log.begin() + static_cast<std::ptrdiff_t>(cuts[c + 1])});
      if (c == cuts.size() / 2) {
        BlobWriter w;
        scorer.save_state(w);
        const std::vector<std::uint8_t> blob = std::move(w).take();
        RecordScorer resumed{tick, saturation};
        BlobReader r{blob};
        resumed.restore_state(r);
        EXPECT_TRUE(r.done());
        scorer = resumed;
      }
    }
    expect_same_stats(scorer.stats(), whole,
                      "split into " + std::to_string(cuts.size() - 1));
  }
}

}  // namespace
}  // namespace aetr::analysis
