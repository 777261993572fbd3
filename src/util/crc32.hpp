// CRC-32 (IEEE reflected, poly 0xEDB88320), slice-by-8.
//
// The one CRC-32 kernel in the library. It folds eight bytes per step
// through eight 256-entry constexpr tables (read-only data, no static-init
// guard), then one four-byte step and a byte-at-a-time tail; the values
// are those of the classic byte-wise table walk, bit for bit. The socket
// transport's frames and the session snapshot trailer cover byte buffers
// (crc32_bytes); the I2S carrier's crc32_words (i2s/framing.hpp) feeds each
// u32 word as its four little-endian bytes through crc32_update, so
// crc32_bytes of a whole-word buffer equals crc32_words of those words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aetr::util {

/// Fold `size` bytes into a raw CRC register: no init or final inversion,
/// so a stream can be hashed in pieces. crc32_bytes(d, n) equals
/// ~crc32_update(0xFFFFFFFF, d, n).
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t state,
                                         const std::uint8_t* data,
                                         std::size_t size);

[[nodiscard]] std::uint32_t crc32_bytes(const std::uint8_t* data,
                                        std::size_t size);
[[nodiscard]] std::uint32_t crc32_bytes(const std::vector<std::uint8_t>& b);

}  // namespace aetr::util
