// Exact floor division by a run-time constant, with one multiply.
//
// Granlund & Montgomery, "Division by invariant integers using
// multiplication" (PLDI 1994), Thm 4.2 with N = 63: for a divisor d with
// l = ceil(log2 d) and m = ceil(2^(63 + l) / d), every numerator
// 0 <= n < 2^63 gives floor(n / d) = floor(m * n / 2^(63 + l)). The
// multiplier fits in 64 bits because the numerator leaves the top bit
// free, and doubling n first turns the 127-bit product's shift into the
// high word shifted by l, so d = 1 (l = 0, m = 2^63) needs no branch.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

namespace aetr {

class Reciprocal {
 public:
  Reciprocal() = default;  // divides by 1

  /// `d` must be in [1, 2^63).
  explicit Reciprocal(std::uint64_t d)
      : shift_{static_cast<unsigned>(std::bit_width(d - 1))} {
    assert(d >= 1 && d < (std::uint64_t{1} << 63));
    __extension__ using Wide = unsigned __int128;
    multiplier_ = static_cast<std::uint64_t>(
        ((Wide{1} << (63 + shift_)) + d - 1) / d);
  }

  /// floor(n / d) for 0 <= n < 2^63.
  [[nodiscard]] std::uint64_t divide(std::uint64_t n) const {
    assert(n < (std::uint64_t{1} << 63));
    __extension__ using Wide = unsigned __int128;
    const auto high =
        static_cast<std::uint64_t>((Wide{n << 1} * multiplier_) >> 64);
    return high >> shift_;
  }

 private:
  std::uint64_t multiplier_{std::uint64_t{1} << 63};
  unsigned shift_{0};
};

}  // namespace aetr
