#include "util/crc32.hpp"

#include <array>

namespace aetr::util {
namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0u ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  return table;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, const std::uint8_t* data,
                           std::size_t size) {
  const auto& table = crc_table();
  for (std::size_t i = 0; i < size; ++i) {
    state = table[(state ^ data[i]) & 0xffu] ^ (state >> 8);
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
