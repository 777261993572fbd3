#include "gen/sources.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace aetr::gen {

std::size_t SpikeSource::fill(std::span<aer::Event> out) {
  std::size_t n = 0;
  for (; n < out.size(); ++n) {
    const auto ev = next();
    if (!ev) break;
    out[n] = *ev;
  }
  return n;
}

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

namespace {

// The table log behind LfsrRateSource::cycles(). A register word gives
// x = word + 1 in [1, 2^24], exact as a double: x = 2^e * m with m in
// [1, 2). The top 8 fraction bits i of m pick the interval
// [1 + i/256, 1 + (i+1)/256), centred at c_i = 1 + (i + 1/2)/256; the
// table holds r_i, 1/c_i rounded to 29 significant bits, and -ln r_i. Then
//   ln x = e ln 2 - ln r_i + log1p(z),   z = m r_i - 1,
// and m r_i is exact (24-bit times 29-bit significand), so z is exact by
// Sterbenz, with |z| <= 2^-9 + 2^-28.
//
// Error of -ln u = (24 - e) ln 2 + ln r_i - log1p(z) against the real
// value, each term bounded:
//   log1p to four terms, the tail:   |z|^5/5 / (1 - |z|)     < 5.8e-15
//   ln 2 as a double, times <= 24:   24 * 2^-53 * ln 2       < 1.9e-15
//   rounding of (24 - e) ln 2 (<= 16.7) and of the last sum:
//                                    2 * 2^-53 * 16.7        < 3.8e-15
//   -ln r_i from std::log (<= 1 ulp of <= ln 2):             < 1.6e-16
//   the polynomial's and the inner sum's roundings:          < 2e-16
// in all under 1.2e-14; kLnErr = 1e-13 leaves more than 8x.
// The quotient then takes the relative roundings of 1/-ln(1-p) and of the
// product (2 * 2^-53), and the std::log expression it must agree with
// those of its log (<= 1 ulp, 2^-52) and division (2^-53): under
// 5 * 2^-53 = 5.6e-16 of q together; kQuotErr = 4e-15 leaves 7x.
constexpr double kLnErr = 1e-13;
constexpr double kQuotErr = 4e-15;
constexpr double kLn2 = 0.69314718055994530942;
constexpr int kLogTableBits = 8;

}  // namespace

struct LfsrRateSource::LogCell {
  double r;          ///< 1/c_i to 29 significant bits
  double neg_log_r;  ///< -ln r_i
};

const LfsrRateSource::LogCell* LfsrRateSource::log_table() {
  static const auto table = [] {
    std::array<LogCell, 1u << kLogTableBits> t{};
    constexpr double kCells = 1u << kLogTableBits;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const double c = 1.0 + (static_cast<double>(i) + 0.5) / kCells;
      const double r =
          std::ldexp(std::nearbyint(std::ldexp(1.0 / c, 29)), -29);
      t[i] = {r, -std::log(r)};
    }
    return t;
  }();
  return table.data();
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
      gen_hz_{gen_clock.to_hz()},
      log_table_{log_table()} {
  // Outside (0, gen_clock) ln(1 - p) is not a finite negative number and
  // the draw would be meaningless.
  if (!(target_rate_hz > 0.0 && target_rate_hz < gen_hz_)) {
    throw std::invalid_argument(
        "LfsrRateSource: rate must be above 0 and below the generator clock");
  }
  const double p = target_rate_hz / gen_hz_;
  threshold_ = static_cast<std::uint32_t>(
      std::llround(p * static_cast<double>(interval_lfsr_.max_period() + 1)));
  threshold_ = std::max(threshold_, 1u);
  const double p_fire = static_cast<double>(threshold_) /
                        static_cast<double>(interval_lfsr_.max_period() + 1);
  log1m_p_ = std::log1p(-p_fire);
  inv_neg_log1m_p_ = -1.0 / log1m_p_;
  abs_slack_ = kLnErr * inv_neg_log1m_p_;
}

double LfsrRateSource::effective_rate_hz() const {
  return gen_hz_ * static_cast<double>(threshold_) /
         static_cast<double>(interval_lfsr_.max_period() + 1);
}

Time::Rep LfsrRateSource::cycles_std_log(std::uint32_t word) const {
  // Geometric sampling of the per-cycle Bernoulli trial: the number of
  // generator cycles until the next sub-threshold word is
  // floor(ln u / ln(1-p)) + 1 with u uniform in (0,1] — drawn from the
  // interval LFSR so the stream stays fully deterministic per seed.
  const double u = (static_cast<double>(word) + 1.0) /
                   static_cast<double>(interval_lfsr_.max_period() + 1);
  const auto cycles = static_cast<Time::Rep>(
      std::floor(std::log(u) / log1m_p_) + 1.0);
  return std::max<Time::Rep>(cycles, 1);
}

inline Time::Rep LfsrRateSource::table_cycles(std::uint32_t word) const {
  // See kLnErr above for the error bound. No libm call on the accepted
  // path: truncation is a conversion, and it is the floor where the
  // quotient is >= 0, which the std::log one always is (a negative cheap
  // quotient above -1 truncates to the same 0).
  constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kOne = 0x3FF0000000000000u;  // the bits of 1.0
  const auto bits =
      std::bit_cast<std::uint64_t>(static_cast<double>(word) + 1.0);
  const int e = static_cast<int>(bits >> 52) - 1023;
  const LogCell& cell = log_table_[(bits >> (52 - kLogTableBits)) &
                                   ((1u << kLogTableBits) - 1)];
  const double m = std::bit_cast<double>((bits & kFraction) | kOne);
  const double z = m * cell.r - 1.0;
  const double log1p_z = z - z * z * (0.5 - z * (1.0 / 3.0 - z * 0.25));
  const int k = static_cast<int>(interval_lfsr_.width()) - e;
  const double neg_ln_u =
      static_cast<double>(k) * kLn2 - (cell.neg_log_r + log1p_z);
  const double q = neg_ln_u * inv_neg_log1m_p_;
  const double slack = abs_slack_ + kQuotErr * q;
  const auto lo = static_cast<Time::Rep>(q - slack);
  if (lo == static_cast<Time::Rep>(q + slack)) [[likely]] return lo + 1;
  return cycles_std_log(word);
}

Time::Rep LfsrRateSource::cycles(std::uint32_t word) const {
  return table_cycles(word);
}

inline aer::Event LfsrRateSource::draw(Time& t) {
  t += gen_period_ * table_cycles(interval_lfsr_.step_word());
  const auto addr =
      static_cast<std::uint16_t>(address_lfsr_.step_word() % address_range_);
  return aer::Event{addr, t};
}

std::optional<aer::Event> LfsrRateSource::next() { return draw(t_); }

std::size_t LfsrRateSource::fill(std::span<aer::Event> out) {
  // The time runs in a local: a store through `out` could alias t_.
  Time t = t_;
  for (aer::Event& ev : out) ev = draw(t);
  t_ = t;
  return out.size();
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
  aer::EventStream out(n);
  out.resize(source.fill(out));
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
