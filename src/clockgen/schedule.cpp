#include "clockgen/schedule.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace aetr::clockgen {

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
  theta_ = cfg_.theta_div;
  top_level_ = cfg_.divide_enabled ? cfg_.n_div : 0;
  sleeps_ = cfg_.divide_enabled && cfg_.shutdown_enabled;
  // The latest level start, tmin * theta_div * (2^(top + 1) - 1), must be
  // a Time; the factor itself is below 2^63 (theta_div < 2^32, top <= 30).
  // So is every divisor below, which the reciprocals need.
  const auto tmin = static_cast<std::uint64_t>(cfg_.tmin.count_ps());
  const std::uint64_t last_factor = level_ticks(top_level_ + 1);
  if (tmin > static_cast<std::uint64_t>(Time::max().count_ps()) / last_factor) {
    throw std::invalid_argument(
        "SamplingSchedule: tmin * theta_div * 2^(n_div + 1) exceeds the time "
        "range");
  }
  tmin_recip_ = Reciprocal{tmin};
  dwell_recip_ = Reciprocal{tmin * theta_};
  awake_span_ = sleeps_ ? cfg_.tmin * static_cast<Time::Rep>(last_factor)
                        : Time::max();
  // The clock that never stops never freezes its counter.
  saturation_ticks_ = sleeps_ ? last_factor : ~std::uint64_t{0};
  // Every level contributed theta_div edges except that the would-be edge
  // at the shutdown instant never happens.
  asleep_cycles_ = theta_ * (top_level_ + 1) - 1;
}

Time SamplingSchedule::period_of_level(std::uint32_t k) const {
  assert(k <= top_level_);
  return cfg_.tmin * static_cast<Time::Rep>(std::uint64_t{1} << k);
}

Time SamplingSchedule::level_start(std::uint32_t k) const {
  assert(k <= top_level_ + 1);
  return k <= top_level_
             ? cfg_.tmin * static_cast<Time::Rep>(level_ticks(k))
             : awake_span_;
}

Time SamplingSchedule::awake_span() const { return awake_span_; }

std::uint32_t SamplingSchedule::level_of_ps(std::uint64_t ps) const {
  // elapsed >= S_k <=> floor(elapsed / (theta_div * Tmin)) + 1 >= 2^k.
  const std::uint64_t dwells = dwell_recip_.divide(ps);
  return std::min(top_level_,
                  static_cast<std::uint32_t>(std::bit_width(dwells + 1)) - 1);
}

SamplingSchedule::Place SamplingSchedule::first_edge_place(
    Time elapsed) const {
  if (elapsed <= Time::zero()) return {0, 0};
  const auto ps = static_cast<std::uint64_t>(elapsed.count_ps());
  const std::uint32_t k = level_of_ps(ps);
  // ceil(elapsed / Tmin) - theta_div * (2^k - 1) Tmin into the level,
  // rounded up to the level's period 2^k Tmin.
  const std::uint64_t c = tmin_recip_.divide(ps - 1) + 1;
  return {k, (c - level_ticks(k) + (std::uint64_t{1} << k) - 1) >> k};
}

std::uint32_t SamplingSchedule::level_at(Time elapsed) const {
  if (elapsed <= Time::zero()) return 0;
  return level_of_ps(static_cast<std::uint64_t>(elapsed.count_ps()));
}

bool SamplingSchedule::is_asleep_at(Time elapsed) const {
  return elapsed >= awake_span_;
}

Time SamplingSchedule::first_edge_at_or_after(Time elapsed) const {
  if (is_asleep_at(elapsed)) return Time::max();
  const Place p = first_edge_place(elapsed);
  // Index theta_div is the level's end: the next level's first edge, or
  // at the top the shutdown instant, where no edge comes.
  if (sleeps_ && p.k == top_level_ && p.idx >= theta_) return Time::max();
  return cfg_.tmin *
         static_cast<Time::Rep>(level_ticks(p.k) + (p.idx << p.k));
}

std::uint64_t SamplingSchedule::counter_at_edge(Time edge) const {
  if (edge >= awake_span_) return saturation_ticks_;
  const std::uint32_t k = level_at(edge);
  const std::uint64_t in_level = tmin_ticks(edge) - level_ticks(k);
  // Round down to the level's period: the edge at or before `edge`, below
  // saturation_ticks() since it comes before awake_span().
  return level_ticks(k) + ((in_level >> k) << k);
}

std::uint64_t SamplingSchedule::cycles_until(Time elapsed) const {
  if (elapsed <= Time::zero()) return 0;
  if (is_asleep_at(elapsed)) return asleep_cycles_;
  const std::uint32_t k = level_at(elapsed);
  return theta_ * k + ((tmin_ticks(elapsed) - level_ticks(k)) >> k);
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
  // Hot path (one call per captured spike): locate the first edge, then
  // step sync_edges edges on by index. A level's edges are indices
  // 0..theta_div-1 and its boundary instant is index theta_div, which is
  // also the next level's index 0, so an index past the level carries into
  // the next one; stepping off the top level means shutdown would
  // interrupt the synchroniser. Every saturated outcome closes at or past
  // awake_span(), where cycles_until() reads asleep_cycles_.
  auto [k, idx] = first_edge_place(delta);
  idx += sync_edges;
  while (idx >= theta_ && k < top_level_) {
    idx -= theta_;
    ++k;
  }
  if (sleeps_ && idx >= theta_) {
    // The request landed in, or the synchroniser ran into, the final
    // sampling period before shutdown; the FSM checks request() before
    // shutting down, so the clock keeps ticking at the slowest period
    // until the sample completes.
    m.sample_edge = awake_span_ + period_of_level(top_level_) *
                                      static_cast<Time::Rep>(idx - theta_);
    m.ticks = saturation_ticks_;
    m.saturated = true;
    m.cycles = asleep_cycles_;
    return m;
  }
  // counter_at_edge and cycles_until with the level and index in hand:
  // the counter reads the edge's own position in Tmin units, below
  // saturation_ticks() since the edge comes before awake_span().
  m.ticks = level_ticks(k) + (idx << k);
  m.sample_edge = cfg_.tmin * static_cast<Time::Rep>(m.ticks);
  m.cycles = theta_ * k + idx;
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
