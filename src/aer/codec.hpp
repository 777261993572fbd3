// Parameterised AETR wire codec.
//
// The 32-bit AETR word spends 22 bits on the timestamp — generous when the
// carrier is bandwidth-constrained. This codec generalises the format to
// any timestamp width: deltas that fit are packed with the address into one
// word; larger deltas are preceded by OVERFLOW continuation words, each
// standing for a full timestamp-range of elapsed time (the scheme jAER-
// style tooling uses for its wrap events). The choice trades words per
// event against how often long gaps cost extra words — quantified in
// `aetr-sweep ablation-width`.
//
// Wire format, W-bit timestamps (W + 10 <= 32):
//   data word:     [addr:10 | delta:W]           delta in Tmin ticks
//   overflow word: [kOverflowAddr:10 | count:W]  adds count * 2^W ticks to
//                                                the next data word's delta
// The all-ones address is reserved as the overflow marker; real sensors use
// at most 10-bit address spaces minus one code (the DAS1 uses far fewer).
#pragma once

#include <cstdint>
#include <vector>

#include "aer/event.hpp"

namespace aetr::aer {

/// One decoded (address, delta-ticks) pair.
struct CodedEvent {
  std::uint16_t address{0};
  std::uint64_t delta_ticks{0};

  friend bool operator==(const CodedEvent&, const CodedEvent&) = default;
};

/// Encoder/decoder for a given timestamp width.
class AetrCodec {
 public:
  /// Address code reserved for overflow words.
  static constexpr std::uint16_t kOverflowAddr = kAddressMask;

  /// `timestamp_bits` in [4, 22].
  explicit AetrCodec(unsigned timestamp_bits = 22);

  [[nodiscard]] unsigned timestamp_bits() const { return ts_bits_; }

  /// Encode one event; appends 1 + overflow-count words to `out`.
  void encode(const CodedEvent& ev, std::vector<std::uint32_t>& out) const;

  /// Encode a whole sequence.
  [[nodiscard]] std::vector<std::uint32_t> encode_stream(
      const std::vector<CodedEvent>& events) const;

  /// Decode a word stream; throws std::runtime_error on malformed input
  /// (overflow run not followed by a data word).
  [[nodiscard]] std::vector<CodedEvent> decode_stream(
      const std::vector<std::uint32_t>& words) const;

  /// Words needed to encode a delta of `ticks` (1 data + overflows).
  [[nodiscard]] std::uint64_t words_for(std::uint64_t delta_ticks) const;

  /// Longest overflow run the codec will emit per event. Deltas needing
  /// more are rejected — the interface saturates timestamps far below this
  /// anyway, and an unbounded run would let one corrupt delta flood the
  /// carrier.
  static constexpr std::uint64_t kMaxOverflowWords = 4096;

 private:
  unsigned ts_bits_;
  std::uint64_t ts_mask_;
};

}  // namespace aetr::aer
