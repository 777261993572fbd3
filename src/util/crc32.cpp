#include "util/crc32.hpp"

#include <array>

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

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, const std::uint8_t* data,
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

std::uint32_t crc32_bytes(const std::uint8_t* data, std::size_t size) {
  return crc32_update(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_bytes(const std::vector<std::uint8_t>& b) {
  return crc32_bytes(b.data(), b.size());
}

}  // namespace aetr::util
