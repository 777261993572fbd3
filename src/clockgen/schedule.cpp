#include "clockgen/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace aetr::clockgen {
namespace {

/// Ceiling division for positive picosecond counts.
Time::Rep ceil_div(Time::Rep a, Time::Rep b) { return (a + b - 1) / b; }

}  // namespace

SamplingSchedule::SamplingSchedule(const ScheduleConfig& config)
    : cfg_{config} {
  if (cfg_.tmin <= Time::zero()) {
    throw std::invalid_argument("SamplingSchedule: tmin must be positive");
  }
  if (cfg_.theta_div == 0) {
    throw std::invalid_argument("SamplingSchedule: theta_div must be > 0");
  }
  if (cfg_.n_div > 30) {
    throw std::invalid_argument("SamplingSchedule: n_div too large (max 30)");
  }
  top_level_ = cfg_.divide_enabled ? cfg_.n_div : 0;
  // The latest instant below, tmin * theta_div * (2^(top + 1) - 1), must be
  // a Time; the factor itself is below 2^63 (theta_div < 2^32, top <= 30).
  const std::uint64_t last_factor =
      static_cast<std::uint64_t>(cfg_.theta_div) *
      ((std::uint64_t{1} << (top_level_ + 1)) - 1);
  if (static_cast<std::uint64_t>(cfg_.tmin.count_ps()) >
      static_cast<std::uint64_t>(Time::max().count_ps()) / last_factor) {
    throw std::invalid_argument(
        "SamplingSchedule: tmin * theta_div * 2^(n_div + 1) exceeds the time "
        "range");
  }
  // S_k = theta_div * Tmin * (2^k - 1); one extra entry marks the end of the
  // top level (the shutdown instant, or "never").
  level_starts_.reserve(top_level_ + 2);
  for (std::uint32_t k = 0; k <= top_level_; ++k) {
    const auto scale = static_cast<Time::Rep>((std::uint64_t{1} << k) - 1);
    level_starts_.push_back(cfg_.tmin * static_cast<Time::Rep>(cfg_.theta_div) *
                            scale);
  }
  const bool sleeps = cfg_.divide_enabled && cfg_.shutdown_enabled;
  if (sleeps) {
    const auto scale =
        static_cast<Time::Rep>((std::uint64_t{1} << (top_level_ + 1)) - 1);
    level_starts_.push_back(cfg_.tmin * static_cast<Time::Rep>(cfg_.theta_div) *
                            scale);
  } else {
    level_starts_.push_back(Time::max());
  }
  saturation_ticks_ =
      awake_span() == Time::max()
          ? ~std::uint64_t{0}  // clock never stops; counter never freezes
          : static_cast<std::uint64_t>(awake_span() / cfg_.tmin);
  // Every level contributed theta_div edges except that the would-be edge
  // at the shutdown instant never happens.
  asleep_cycles_ = static_cast<std::uint64_t>(cfg_.theta_div) *
                       (top_level_ + 1) -
                   1;
}

Time SamplingSchedule::period_of_level(std::uint32_t k) const {
  assert(k <= top_level_);
  return cfg_.tmin * static_cast<Time::Rep>(std::uint64_t{1} << k);
}

Time SamplingSchedule::level_start(std::uint32_t k) const {
  assert(k <= top_level_ + 1);
  return level_starts_[k];
}

Time SamplingSchedule::awake_span() const {
  return level_starts_[top_level_ + 1];
}

std::uint32_t SamplingSchedule::level_at(Time elapsed) const {
  // Level starts strictly increase, so scanning up from level 0 finds the
  // same level as scanning down from the top, in as many steps as the
  // level is deep: short intervals, the common case, stop at once.
  std::uint32_t k = 0;
  while (k < top_level_ && elapsed >= level_starts_[k + 1]) ++k;
  return k;
}

bool SamplingSchedule::is_asleep_at(Time elapsed) const {
  return elapsed >= awake_span();
}

Time SamplingSchedule::first_edge_at_or_after(Time elapsed) const {
  if (elapsed <= Time::zero()) return Time::zero();
  if (is_asleep_at(elapsed)) return Time::max();
  const std::uint32_t k = level_at(elapsed);
  const Time s = level_starts_[k];
  const Time p = period_of_level(k);
  const Time edge =
      s + p * ceil_div((elapsed - s).count_ps(), p.count_ps());
  // The edge may fall exactly on (or, for the top level with shutdown, past)
  // the level boundary; the boundary instant is the next level's first edge,
  // or the shutdown instant at the top.
  if (edge >= level_starts_[k + 1]) {
    return k < top_level_ ? level_starts_[k + 1] : Time::max();
  }
  return edge;
}

std::uint64_t SamplingSchedule::counter_at_edge(Time edge) const {
  const std::uint64_t sat = saturation_ticks();
  if (edge >= awake_span()) return sat;
  const std::uint32_t k = level_at(edge);
  const Time s = level_starts_[k];
  const Time p = period_of_level(k);
  const auto i = static_cast<std::uint64_t>((edge - s) / p);
  const std::uint64_t base =
      static_cast<std::uint64_t>(cfg_.theta_div) *
      ((std::uint64_t{1} << k) - 1);
  return std::min(base + i * (std::uint64_t{1} << k), sat);
}

std::uint64_t SamplingSchedule::cycles_until(Time elapsed) const {
  if (elapsed <= Time::zero()) return 0;
  if (is_asleep_at(elapsed)) return asleep_cycles_;
  const std::uint32_t k = level_at(elapsed);
  const Time s = level_starts_[k];
  const Time p = period_of_level(k);
  return static_cast<std::uint64_t>(cfg_.theta_div) * k +
         static_cast<std::uint64_t>((elapsed - s) / p);
}

SamplingSchedule::Measurement SamplingSchedule::measure(
    Time delta, std::uint32_t sync_edges, Time wake_latency) const {
  Measurement m;
  if (is_asleep_at(delta)) {
    // The request restarts the paused oscillator; the first edge closes one
    // Tmin after the wake latency, the synchroniser consumes sync_edges
    // more, and the event is tagged saturated since the counter froze when
    // the clock stopped.
    m.sample_edge = delta + wake_latency +
                    cfg_.tmin * static_cast<Time::Rep>(sync_edges + 1);
    m.ticks = saturation_ticks_;
    m.saturated = true;
    m.cycles = asleep_cycles_;
    return m;
  }
  // Hot path (one call per captured spike): find the first edge with one
  // division, then place the sample edge sync_edges periods on, carrying
  // the level and the edge's index within it, instead of re-deriving both
  // per synchroniser edge the way chained first_edge_at_or_after and
  // counter_at_edge calls would. Identical boundary rules: an edge landing
  // on (or past) a level boundary becomes the boundary instant — the next
  // level's first edge — and stepping off the top level means shutdown
  // would interrupt the synchroniser. Every saturated outcome closes at or
  // past awake_span(), where cycles_until() reads asleep_cycles_.
  std::uint32_t k = 0;
  Time edge = Time::zero();
  std::uint64_t idx = 0;  // edge == level_starts_[k] + idx * P_k
  if (delta > Time::zero()) {
    k = level_at(delta);
    const Time s = level_starts_[k];
    const Time p = period_of_level(k);
    idx = static_cast<std::uint64_t>(
        ceil_div((delta - s).count_ps(), p.count_ps()));
    edge = s + p * static_cast<Time::Rep>(idx);
    if (edge >= level_starts_[k + 1]) {
      if (k < top_level_) {
        edge = level_starts_[k + 1];
        ++k;
        idx = 0;
      } else {
        // Request landed inside the final sampling period before shutdown;
        // the pending request keeps the clock alive at the slowest period.
        m.sample_edge = awake_span() + period_of_level(top_level_) *
                                           static_cast<Time::Rep>(sync_edges);
        m.ticks = saturation_ticks_;
        m.saturated = true;
        m.cycles = asleep_cycles_;
        return m;
      }
    }
  }
  const Time in_level = edge + period_of_level(k) *
                                   static_cast<Time::Rep>(sync_edges);
  if (in_level < level_starts_[k + 1]) {
    // Common case: every synchroniser edge stays inside the level.
    edge = in_level;
    idx += sync_edges;
  } else {
    for (std::uint32_t i = 0; i < sync_edges; ++i) {
      Time next = edge + period_of_level(k);
      if (next >= level_starts_[k + 1]) {
        if (k < top_level_) {
          next = level_starts_[k + 1];
          ++k;
          idx = 0;
        } else {
          // Shutdown would occur while the request is being synchronised;
          // the FSM checks request() before shutting down, so the clock
          // keeps ticking at the slowest period until the sample completes.
          m.sample_edge = awake_span() +
                          period_of_level(top_level_) *
                              static_cast<Time::Rep>(sync_edges - i - 1);
          m.ticks = saturation_ticks_;
          m.saturated = true;
          m.cycles = asleep_cycles_;
          return m;
        }
      } else {
        ++idx;
      }
      edge = next;
    }
  }
  m.sample_edge = edge;
  // counter_at_edge and cycles_until with the level and index in hand
  // (edge ∈ [S_k, S_k+1)).
  const std::uint64_t base =
      static_cast<std::uint64_t>(cfg_.theta_div) * ((std::uint64_t{1} << k) - 1);
  m.ticks = std::min(base + idx * (std::uint64_t{1} << k), saturation_ticks_);
  m.saturated = m.ticks >= saturation_ticks_;
  m.cycles = static_cast<std::uint64_t>(cfg_.theta_div) * k + idx;
  return m;
}

std::vector<SamplingSchedule::Edge> SamplingSchedule::enumerate_edges(
    Time until, std::size_t max_edges) const {
  std::vector<Edge> edges;
  Time t = Time::zero();
  while (edges.size() < max_edges) {
    const Time e = first_edge_at_or_after(t);
    if (e == Time::max() || e > until) break;
    edges.push_back(Edge{e, level_at(e)});
    t = e + Time::ps(1);
  }
  return edges;
}

}  // namespace aetr::clockgen
