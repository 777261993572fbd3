#include "gen/sources.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace aetr::gen {

PoissonSource::PoissonSource(double rate_hz, std::uint16_t address_range,
                             std::uint64_t seed, Time min_gap)
    : mean_interval_sec_{1.0 / rate_hz},
      address_range_{address_range},
      min_gap_{min_gap},
      rng_{seed} {
  assert(rate_hz > 0.0 && address_range > 0);
}

std::optional<aer::Event> PoissonSource::next() {
  Time dt = Time::sec(rng_.exponential(mean_interval_sec_));
  dt = std::max(dt, min_gap_);
  t_ += dt;
  const auto addr = static_cast<std::uint16_t>(rng_.uniform_int(address_range_));
  return aer::Event{addr, t_};
}

RegularSource::RegularSource(Time period, std::uint16_t address_range,
                             Time first)
    : period_{period}, address_range_{address_range}, t_{first} {
  assert(period > Time::zero() && address_range > 0);
}

std::optional<aer::Event> RegularSource::next() {
  const aer::Event ev{addr_, t_};
  t_ += period_;
  addr_ = static_cast<std::uint16_t>((addr_ + 1u) % address_range_);
  return ev;
}

LfsrRateSource::LfsrRateSource(double target_rate_hz, Frequency gen_clock,
                               std::uint16_t address_range,
                               std::uint32_t interval_seed,
                               std::uint32_t address_seed)
    : gen_period_{gen_clock.period()},
      address_range_{address_range},
      // 24-bit interval register: a 16-bit threshold cannot represent
      // firing probabilities below 1/65536 (~457 evt/s at 30 MHz), and the
      // paper sweeps down to 10 evt/s. x^24 + x^23 + x^22 + x^17 + 1.
      interval_lfsr_{24, 0x87u, interval_seed},
      address_lfsr_{16, 0x100Bu, address_seed},
      gen_hz_{gen_clock.to_hz()} {
  assert(target_rate_hz > 0.0 && target_rate_hz < gen_hz_);
  const double p = target_rate_hz / gen_hz_;
  threshold_ = static_cast<std::uint32_t>(
      std::llround(p * static_cast<double>(interval_lfsr_.max_period() + 1)));
  threshold_ = std::max(threshold_, 1u);
  const double p_fire = static_cast<double>(threshold_) /
                        static_cast<double>(interval_lfsr_.max_period() + 1);
  log1m_p_ = std::log1p(-p_fire);
}

double LfsrRateSource::effective_rate_hz() const {
  return gen_hz_ * static_cast<double>(threshold_) /
         static_cast<double>(interval_lfsr_.max_period() + 1);
}

std::optional<aer::Event> LfsrRateSource::next() {
  // Geometric sampling of the per-cycle Bernoulli trial: the number of
  // generator cycles until the next sub-threshold word is
  // floor(ln u / ln(1-p)) + 1 with u uniform in (0,1] — drawn from the
  // interval LFSR so the stream stays fully deterministic per seed.
  const double u = (static_cast<double>(interval_lfsr_.step_word()) + 1.0) /
                   static_cast<double>(interval_lfsr_.max_period() + 1);
  const auto cycles = static_cast<Time::Rep>(
      std::floor(std::log(u) / log1m_p_) + 1.0);
  t_ += gen_period_ * std::max<Time::Rep>(cycles, 1);
  const auto addr =
      static_cast<std::uint16_t>(address_lfsr_.step_word() % address_range_);
  return aer::Event{addr, t_};
}

BurstSource::BurstSource(double active_rate_hz, Time active_len, Time idle_len,
                         std::uint16_t address_range, std::uint64_t seed)
    : mean_interval_sec_{1.0 / active_rate_hz},
      active_len_{active_len},
      idle_len_{idle_len},
      address_range_{address_range},
      rng_{seed} {
  assert(active_rate_hz > 0.0 && active_len > Time::zero());
}

std::optional<aer::Event> BurstSource::next() {
  t_ += Time::sec(rng_.exponential(mean_interval_sec_));
  // Jump over idle gaps: if the tentative spike falls outside the active
  // window, shift into the next burst (the Poisson process is memoryless,
  // so restarting the residual interval there is statistically identical).
  while (t_ - burst_start_ >= active_len_) {
    const Time overshoot = t_ - burst_start_ - active_len_;
    burst_start_ += active_len_ + idle_len_;
    t_ = burst_start_ + overshoot;
  }
  const auto addr = static_cast<std::uint16_t>(rng_.uniform_int(address_range_));
  return aer::Event{addr, t_};
}

TraceSource::TraceSource(aer::EventStream events) : events_{std::move(events)} {}

std::optional<aer::Event> TraceSource::next() {
  if (pos_ >= events_.size()) return std::nullopt;
  return events_[pos_++];
}

MergeSource::MergeSource(std::vector<std::unique_ptr<SpikeSource>> sources)
    : sources_{std::move(sources)} {
  heads_.reserve(sources_.size());
  for (auto& s : sources_) heads_.push_back(s->next());
}

std::optional<aer::Event> MergeSource::next() {
  std::size_t best = heads_.size();
  for (std::size_t i = 0; i < heads_.size(); ++i) {
    if (heads_[i] &&
        (best == heads_.size() || heads_[i]->time < heads_[best]->time)) {
      best = i;
    }
  }
  if (best == heads_.size()) return std::nullopt;
  auto ev = heads_[best];
  heads_[best] = sources_[best]->next();
  return ev;
}

aer::EventStream take(SpikeSource& source, std::size_t n) {
  aer::EventStream out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto ev = source.next();
    if (!ev) break;
    out.push_back(*ev);
  }
  return out;
}

aer::EventStream take_until(SpikeSource& source, Time end) {
  aer::EventStream out;
  for (;;) {
    auto ev = source.next();
    if (!ev || ev->time >= end) break;
    out.push_back(*ev);
  }
  return out;
}

}  // namespace aetr::gen
