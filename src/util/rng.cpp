#include "util/rng.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace aetr {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// splitmix64, used to expand the single seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Xoshiro256StarStar::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Xoshiro256StarStar::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Xoshiro256StarStar::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Xoshiro256StarStar::uniform_int(std::uint64_t n) {
  assert(n > 0);
  // Lemire's nearly-divisionless bounded sampling, rejection-corrected.
  __extension__ using Wide = unsigned __int128;
  std::uint64_t x = next();
  Wide m = static_cast<Wide>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next();
      m = static_cast<Wide>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256StarStar::exponential(double mean) {
  assert(mean > 0.0);
  double u = uniform();
  // Guard against log(0); uniform() can return exactly 0.
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Xoshiro256StarStar::normal(double mean, double stddev) {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

bool Xoshiro256StarStar::bernoulli(double p) { return uniform() < p; }

Time Xoshiro256StarStar::exponential_time(Time mean) {
  return Time::sec(exponential(mean.to_sec()));
}

Lfsr::Lfsr(std::uint32_t width, std::uint32_t taps, std::uint32_t seed)
    : width_{width},
      taps_{taps},
      state_{seed},
      mask_{width >= 32 ? 0xFFFFFFFFu : ((1u << width) - 1u)} {
  if (width_ < 2 || width_ > 32) {
    throw std::invalid_argument("Lfsr: width must be in [2, 32], got " +
                                std::to_string(width_));
  }
  // The width-clock map of each unit vector: the next state from the
  // serial step(); the word bit, because stage i is clocked out i-th and
  // the first bit out is the word's MSB, at width - 1 - i.
  std::array<std::uint64_t, 32> basis{};
  for (std::uint32_t i = 0; i < width_; ++i) {
    state_ = 1u << i;
    for (std::uint32_t c = 0; c < width_; ++c) step();
    basis[i] = (std::uint64_t{1} << (32 + width_ - 1 - i)) | state_;
  }
  // Byte-sliced tables by linearity: each entry is its lowest set bit's
  // basis vector XOR the entry with that bit cleared.
  for (std::uint32_t k = 0; k < leap_.size(); ++k) {
    for (std::uint32_t b = 1; b < 256; ++b) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(b));
      leap_[k][b] = leap_[k][b & (b - 1)] ^ basis[8 * k + bit];
    }
  }
  state_ = seed & mask_;
  if (state_ == 0) state_ = 1;  // all-zero is the LFSR lockup state
}

std::uint32_t Lfsr::step() {
  // XOR of all tapped stages feeds the MSB; output is the LSB.
  const std::uint32_t out = state_ & 1u;
  const auto feedback =
      static_cast<std::uint32_t>(__builtin_parity(state_ & taps_));
  state_ = ((state_ >> 1) | (feedback << (width_ - 1))) & mask_;
  return out;
}

}  // namespace aetr
