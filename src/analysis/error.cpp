#include "analysis/error.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/blob.hpp"
#include "util/rng.hpp"

namespace aetr::analysis {

const char* to_string(Region r) {
  switch (r) {
    case Region::kInactive: return "inactive";
    case Region::kActive: return "active";
    case Region::kHighActivity: return "high-activity";
  }
  return "?";
}

namespace {

/// Scores one measured interval into the stats.
void score(ErrorStats& s, Time true_delta, Time measured, bool saturated,
           Time tmin) {
  ++s.events;
  if (saturated) ++s.saturated;
  if (true_delta < tmin * 2) ++s.sub_nyquist;
  if (true_delta > Time::zero()) {
    const double abs_err = std::abs((measured - true_delta).to_sec());
    s.rel_error.add(abs_err / true_delta.to_sec());
    s.abs_err_sec += abs_err;
    s.true_sec += true_delta.to_sec();
    if (!saturated) {
      s.abs_err_unsat_sec += abs_err;
      s.true_unsat_sec += true_delta.to_sec();
    }
  }
}

}  // namespace

ErrorStats sweep_error(const clockgen::ScheduleConfig& cfg, double rate_hz,
                       const SweepOptions& opt) {
  assert(rate_hz > 0.0);
  const clockgen::SamplingSchedule schedule{cfg};
  Xoshiro256StarStar rng{opt.seed};
  ErrorStats stats;

  // `carry` is the lag between the previous event's true arrival and the
  // sampling edge where it was consumed: the next interval starts at that
  // edge, so the request lands `true_delta - carry` into the new schedule.
  Time carry = Time::zero();
  for (std::size_t i = 0; i < opt.n_events; ++i) {
    const Time true_delta = std::max(
        rng.exponential_time(Time::sec(1.0 / rate_hz)), opt.min_gap);
    Time elapsed = true_delta - carry;
    if (elapsed < Time::ps(1)) elapsed = Time::ps(1);
    const auto m = schedule.measure(elapsed, opt.sync_edges, opt.wake_latency);
    const Time measured = cfg.tmin * static_cast<Time::Rep>(
                              std::min<std::uint64_t>(m.ticks, UINT32_MAX));
    score(stats, true_delta, measured, m.saturated, cfg.tmin);
    carry = m.sample_edge - elapsed;
  }
  return stats;
}

std::vector<CurvePoint> sweep_error_curve(const clockgen::ScheduleConfig& cfg,
                                          double rate_lo_hz, double rate_hi_hz,
                                          std::size_t points,
                                          const SweepOptions& opt) {
  assert(points >= 2 && rate_hi_hz > rate_lo_hz);
  std::vector<CurvePoint> curve;
  curve.reserve(points);
  const double step =
      std::log(rate_hi_hz / rate_lo_hz) / static_cast<double>(points - 1);
  for (std::size_t i = 0; i < points; ++i) {
    const double rate = rate_lo_hz * std::exp(step * static_cast<double>(i));
    SweepOptions o = opt;
    o.seed = opt.seed + i;  // decorrelate points
    CurvePoint p;
    p.rate_hz = rate;
    p.stats = sweep_error(cfg, rate, o);
    p.region = classify_region(cfg, rate);
    curve.push_back(std::move(p));
  }
  return curve;
}

void RecordScorer::add(const frontend::CaptureRecord& rec) {
  const Time request = rec.request.time;
  if (have_prev_) {
    const bool saturated = rec.word.is_saturated();
    const Time measured =
        saturated ? saturation_span_
                  : tick_unit_ *
                        static_cast<Time::Rep>(rec.word.timestamp_ticks());
    score(stats_, request - prev_request_, measured, saturated, tick_unit_);
  }
  have_prev_ = true;
  prev_request_ = request;
}

void RecordScorer::add(const std::vector<frontend::CaptureRecord>& records) {
  for (const auto& rec : records) add(rec);
}

void RecordScorer::save_state(BlobWriter& w) const {
  w.b(have_prev_);
  w.time(prev_request_);
  const auto rs = stats_.rel_error.state();
  w.u64(rs.n);
  w.f64(rs.mean);
  w.f64(rs.m2);
  w.f64(rs.min);
  w.f64(rs.max);
  w.u64(stats_.events);
  w.u64(stats_.saturated);
  w.u64(stats_.sub_nyquist);
  w.f64(stats_.abs_err_sec);
  w.f64(stats_.true_sec);
  w.f64(stats_.abs_err_unsat_sec);
  w.f64(stats_.true_unsat_sec);
}

void RecordScorer::restore_state(BlobReader& r) {
  have_prev_ = r.b();
  prev_request_ = r.time();
  RunningStats::State rs{};
  rs.n = r.u64();
  rs.mean = r.f64();
  rs.m2 = r.f64();
  rs.min = r.f64();
  rs.max = r.f64();
  stats_.rel_error.set_state(rs);
  stats_.events = r.u64();
  stats_.saturated = r.u64();
  stats_.sub_nyquist = r.u64();
  stats_.abs_err_sec = r.f64();
  stats_.true_sec = r.f64();
  stats_.abs_err_unsat_sec = r.f64();
  stats_.true_unsat_sec = r.f64();
}

ErrorStats analyze_records(const std::vector<frontend::CaptureRecord>& records,
                           Time tick_unit, Time saturation_span) {
  RecordScorer scorer{tick_unit, saturation_span};
  scorer.add(records);
  return scorer.stats();
}

std::vector<double> record_errors(
    const std::vector<frontend::CaptureRecord>& records, Time tick_unit,
    Time saturation_span) {
  std::vector<double> errors;
  errors.reserve(records.size());
  for (std::size_t i = 1; i < records.size(); ++i) {
    const Time true_delta = records[i].request.time - records[i - 1].request.time;
    if (true_delta <= Time::zero()) continue;
    const Time measured =
        records[i].word.is_saturated()
            ? saturation_span
            : tick_unit * static_cast<Time::Rep>(
                  records[i].word.timestamp_ticks());
    errors.push_back(std::abs((measured - true_delta).to_sec()) /
                     true_delta.to_sec());
  }
  return errors;
}

Region classify_region(const clockgen::ScheduleConfig& cfg, double rate_hz) {
  const clockgen::SamplingSchedule schedule{cfg};
  // High activity: fewer than 10 % of Poisson intervals reach the first
  // division, i.e. exp(-r * theta*Tmin) < 0.1.
  const double first_division_sec =
      cfg.tmin.to_sec() * static_cast<double>(cfg.theta_div);
  if (!cfg.divide_enabled ||
      std::exp(-rate_hz * first_division_sec) < 0.1) {
    return Region::kHighActivity;
  }
  // Inactive: the majority of intervals outlive the awake span.
  if (schedule.awake_span() != Time::max()) {
    const double p_saturate =
        std::exp(-rate_hz * schedule.awake_span().to_sec());
    if (p_saturate > 0.5) return Region::kInactive;
  }
  return Region::kActive;
}

double analytic_error_bound(std::uint32_t theta_div) {
  assert(theta_div > 0);
  return 2.0 / static_cast<double>(theta_div);
}

}  // namespace aetr::analysis
