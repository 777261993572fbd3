// CRC-32 (IEEE reflected, poly 0xEDB88320): a carry-less-multiply fold
// for long buffers, slice-by-8 tables for the rest.
//
// The one CRC-32 in the library, with two kernels that compute the same
// function bit for bit:
//
// - crc32_update_table is slice-by-8: it folds eight bytes per step
//   through eight 256-entry constexpr tables (read-only data, no
//   static-init guard), then one four-byte step and a byte-at-a-time tail;
//   the values are those of the classic byte-wise table walk. It is the
//   portable kernel and the oracle the folding kernel is tested against.
// - crc32_update_clmul folds a buffer of 64 bytes or more with PCLMULQDQ
//   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//   PCLMULQDQ Instruction", Intel white paper, 2009; zlib and Linux ship
//   the same algorithm): four parallel 128-bit folds per 64-byte block,
//   then 16-byte folds, then a Barrett reduction to 32 bits. The last
//   size % 16 bytes go through the table kernel. Its constants k1..k5
//   (x^n mod P for n = 4*128+32, 4*128-32, 128+32, 128-32, 64), P' and
//   mu (x^64 div P) are derived in crc32.cpp by constexpr GF(2)
//   arithmetic and checked there against the values the paper publishes.
//
// crc32_update sends every buffer of 64 bytes or more to the folding
// kernel when the CPU reports PCLMUL (__builtin_cpu_supports, read once);
// short buffers, CPUs without it and non-x86-64 builds take the table
// kernel. There is no other switch.
//
// The socket transport's frames and the session snapshot trailer cover
// byte buffers (crc32_bytes); the I2S carrier's crc32_words
// (i2s/framing.hpp) feeds each u32 word as its four little-endian bytes
// through crc32_update, so crc32_bytes of a whole-word buffer equals
// crc32_words of those words.
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

/// The two kernels behind crc32_update, for tests and benchmarks; each
/// takes and returns a raw register as crc32_update does.
[[nodiscard]] std::uint32_t crc32_update_table(std::uint32_t state,
                                               const std::uint8_t* data,
                                               std::size_t size);
/// Call only where crc32_clmul_supported(): on an x86-64 CPU without
/// PCLMUL it faults on an illegal instruction. On other builds it is the
/// table kernel.
[[nodiscard]] std::uint32_t crc32_update_clmul(std::uint32_t state,
                                               const std::uint8_t* data,
                                               std::size_t size);
/// True on an x86-64 build running on a CPU that reports PCLMUL.
[[nodiscard]] bool crc32_clmul_supported();

}  // namespace aetr::util
