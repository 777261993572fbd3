// Deterministic random-number utilities.
//
// Two generators are provided:
//   * Xoshiro256StarStar — fast, high-quality software RNG used by the
//     Poisson stimulus model and the metastability injector. Deterministic
//     across platforms (unlike std::mt19937 distributions).
//   * Lfsr — a bit-accurate Fibonacci linear-feedback shift register, the
//     same structure the paper synthesised on the FPGA to generate
//     pseudo-random spike streams for the power measurements (§5.2).
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "util/time.hpp"

namespace aetr {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
/// Deterministic for a given seed on every platform.
class Xoshiro256StarStar {
 public:
  explicit Xoshiro256StarStar(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Exponentially distributed value with the given mean (mean > 0).
  double exponential(double mean);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal(double mean, double stddev);

  /// True with probability p.
  bool bernoulli(double p);

  /// Exponentially distributed time span with the given mean span.
  Time exponential_time(Time mean);

  /// Raw generator state, for snapshot/restore. A restored generator
  /// continues the exact sequence the saved one would have produced.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
  }

 private:
  std::uint64_t s_[4];
};

/// Bit-accurate Fibonacci LFSR with XOR feedback from a tap mask.
///
/// `taps` is a bitmask over the state register: the feedback bit is the
/// XOR of all masked state bits, shifted in at the MSB while the register
/// shifts right (bit 0 is the output, i.e. stage `width`). The default
/// mask 0x100B realises the maximal-length 16-bit polynomial
/// x^16 + x^15 + x^13 + x^4 + 1 (period 65535), a common FPGA choice.
class Lfsr {
 public:
  explicit Lfsr(std::uint32_t width = 16, std::uint32_t taps = 0x100Bu,
                std::uint32_t seed = 0xACE1u);

  /// Advance one clock; returns the output bit (the LSB shifted out).
  std::uint32_t step();

  /// Advance `width` clocks at once and return the parallel word: the
  /// first bit clocked out is the word's MSB, so the word is the register
  /// before the call, bit-reversed. Both the word and the new state are
  /// linear over GF(2) in the old state, so the constructor precomputes
  /// the whole `width`-clock map as byte-sliced leap-ahead tables (from
  /// `step()` on each unit vector) and this is four lookups and three XORs.
  std::uint32_t step_word() {
    const std::uint64_t v = leap_[0][state_ & 0xFFu] ^
                            leap_[1][(state_ >> 8) & 0xFFu] ^
                            leap_[2][(state_ >> 16) & 0xFFu] ^
                            leap_[3][state_ >> 24];
    state_ = static_cast<std::uint32_t>(v);
    return static_cast<std::uint32_t>(v >> 32);
  }

  [[nodiscard]] std::uint32_t state() const { return state_; }
  [[nodiscard]] std::uint32_t width() const { return width_; }

  /// Sequence period for a maximal-length register of this width.
  [[nodiscard]] std::uint64_t max_period() const {
    return (std::uint64_t{1} << width_) - 1;
  }

 private:
  std::uint32_t width_;
  std::uint32_t taps_;
  std::uint32_t state_;
  std::uint32_t mask_;
  /// leap_[k][b]: `(word << 32) | next_state` of `width` clocks from the
  /// state whose byte k is b and whose other bytes are zero.
  std::array<std::array<std::uint64_t, 256>, 4> leap_{};
};

}  // namespace aetr
