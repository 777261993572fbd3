// CRC-32 (byte-wise IEEE reflected, poly 0xEDB88320).
//
// The I2S carrier's crc32_words (i2s/framing.hpp) runs over u32 words; the
// socket transport's frames and the session snapshot trailer cover
// arbitrary byte buffers, so they need the byte-wise form. Same polynomial,
// same init/final inversion — crc32_bytes of a whole-word buffer equals
// crc32_words of those words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aetr::util {

[[nodiscard]] std::uint32_t crc32_bytes(const std::uint8_t* data,
                                        std::size_t size);
[[nodiscard]] std::uint32_t crc32_bytes(const std::vector<std::uint8_t>& b);

}  // namespace aetr::util
