#include "util/crc32.hpp"

#include <array>

#if defined(__x86_64__) && defined(__GNUC__)
#define AETR_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace aetr::util {
namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320. Row 0 is the
/// classic byte table; row k advances a byte's contribution through k more
/// zero bytes, so one step can fold eight input bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0u ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

constexpr std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// --- folding constants -------------------------------------------------------
//
// In the reflected domain bit 31 of a register is x^0 and bit 0 is x^31, so
// multiplying by x is one CRC shift. A 64x64 carry-less product of two
// reflected operands comes out one bit low, which the << 1 puts back.

/// x^n mod P(x), reflected.
constexpr std::uint32_t xpow_mod(unsigned n) {
  std::uint32_t r = 0x80000000u;  // x^0
  for (unsigned i = 0; i < n; ++i) {
    r = (r & 1u) != 0u ? 0xEDB88320u ^ (r >> 1) : r >> 1;
  }
  return r;
}

/// The fold multiplier for a distance of n bits: (x^n mod P)' << 1.
constexpr std::uint64_t fold_constant(unsigned n) {
  return std::uint64_t{xpow_mod(n)} << 1;
}

/// The low `bits` bits of v in reverse order.
constexpr std::uint64_t reflect(std::uint64_t v, int bits) {
  std::uint64_t r = 0;
  for (int i = 0; i < bits; ++i) {
    if (((v >> i) & 1u) != 0u) r |= std::uint64_t{1} << (bits - 1 - i);
  }
  return r;
}

/// The unreflected polynomial P(x), x^32 included.
constexpr std::uint64_t kPoly = 0x104C11DB7u;

/// floor(x^64 / P(x)), reflected over its 33 bits: Barrett's mu.
constexpr std::uint64_t barrett_mu() {
  std::uint64_t window = std::uint64_t{1} << 32;  // x^64's top 33 bits
  std::uint64_t quotient = 0;
  for (int bit = 32; bit >= 0; --bit) {
    if (((window >> 32) & 1u) != 0u) {
      quotient |= std::uint64_t{1} << bit;
      window ^= kPoly;
    }
    window = (window << 1) & 0x1FFFFFFFFu;
  }
  return reflect(quotient, 33);
}

constexpr std::uint64_t kK1 = fold_constant(4 * 128 + 32);  // 64-byte fold
constexpr std::uint64_t kK2 = fold_constant(4 * 128 - 32);
constexpr std::uint64_t kK3 = fold_constant(128 + 32);  // 16-byte fold
constexpr std::uint64_t kK4 = fold_constant(128 - 32);
constexpr std::uint64_t kK5 = fold_constant(64);  // 96 -> 64 bits
constexpr std::uint64_t kPolyReflected = reflect(kPoly, 33);  // P'
constexpr std::uint64_t kMu = barrett_mu();

// The values the white paper (and zlib, and Linux) publish.
static_assert(kK1 == 0x154442BD4u && kK2 == 0x1C6E41596u);
static_assert(kK3 == 0x1751997D0u && kK4 == 0x0CCAA009Eu);
static_assert(kK5 == 0x163CD6124u);
static_assert(kPolyReflected == 0x1DB710641u && kMu == 0x1F7011641u);

/// Buffers shorter than this stay on the table kernel.
constexpr std::size_t kFoldMinBytes = 64;

#if AETR_CRC32_CLMUL

#define AETR_CLMUL_TARGET __attribute__((target("pclmul")))

AETR_CLMUL_TARGET inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// `lo` in the low and `hi` in the high 64 bits.
AETR_CLMUL_TARGET inline __m128i lanes(std::uint64_t lo, std::uint64_t hi) {
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}

/// acc carried 128 bits further along the message (k's low and high
/// halves multiply acc's), plus the 16 bytes found there.
AETR_CLMUL_TARGET inline __m128i fold16(__m128i acc, __m128i k,
                                        __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// Fold `size` bytes (a multiple of 16, at least 64) into the raw
/// register `state`.
AETR_CLMUL_TARGET std::uint32_t fold_clmul(std::uint32_t state,
                                           const std::uint8_t* p,
                                           std::size_t size) {
  const __m128i k1k2 = lanes(kK1, kK2);
  const __m128i k3k4 = lanes(kK3, kK4);
  __m128i x0 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  for (p += 64, size -= 64; size >= 64; p += 64, size -= 64) {
    x0 = fold16(x0, k1k2, load16(p));
    x1 = fold16(x1, k1k2, load16(p + 16));
    x2 = fold16(x2, k1k2, load16(p + 32));
    x3 = fold16(x3, k1k2, load16(p + 48));
  }
  __m128i acc = fold16(fold16(fold16(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) acc = fold16(acc, k3k4, load16(p));

  // 128 -> 96 bits (the low half times k4), then 96 -> 64 (the low word
  // times k5).
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k3k4, 0x10));
  acc = _mm_xor_si128(_mm_srli_si128(acc, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(acc, low32),
                                           lanes(kK5, 0), 0x00));

  // Barrett: q = (low word * mu) / x^32, remainder = acc ^ q * P'.
  const __m128i barrett = lanes(kPolyReflected, kMu);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  acc = _mm_xor_si128(acc, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(acc, 4)));
}

bool detect_clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") != 0;
}

#endif  // AETR_CRC32_CLMUL

}  // namespace

std::uint32_t crc32_update_table(std::uint32_t state, const std::uint8_t* data,
                                 std::size_t size) {
  const auto& t = kCrcTables;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = state ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    state = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
            t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
            t[0][hi >> 24];
  }
  if (size >= 4) {  // one word: the I2S carrier's whole-word updates
    const std::uint32_t lo = state ^ load_le32(data);
    state = t[3][lo & 0xffu] ^ t[2][(lo >> 8) & 0xffu] ^
            t[1][(lo >> 16) & 0xffu] ^ t[0][lo >> 24];
    data += 4;
    size -= 4;
  }
  for (; size > 0; ++data, --size) {
    state = t[0][(state ^ *data) & 0xffu] ^ (state >> 8);
  }
  return state;
}

bool crc32_clmul_supported() {
#if AETR_CRC32_CLMUL
  static const bool supported = detect_clmul();
  return supported;
#else
  return false;
#endif
}

std::uint32_t crc32_update_clmul(std::uint32_t state, const std::uint8_t* data,
                                 std::size_t size) {
#if AETR_CRC32_CLMUL
  if (size >= kFoldMinBytes) {
    const std::size_t folded = size & ~std::size_t{15};
    state = fold_clmul(state, data, folded);
    data += folded;
    size -= folded;
  }
#endif
  return crc32_update_table(state, data, size);
}

std::uint32_t crc32_update(std::uint32_t state, const std::uint8_t* data,
                           std::size_t size) {
  return size >= kFoldMinBytes && crc32_clmul_supported()
             ? crc32_update_clmul(state, data, size)
             : crc32_update_table(state, data, size);
}

std::uint32_t crc32_bytes(const std::uint8_t* data, std::size_t size) {
  return crc32_update(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_bytes(const std::vector<std::uint8_t>& b) {
  return crc32_bytes(b.data(), b.size());
}

}  // namespace aetr::util
