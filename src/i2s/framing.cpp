#include "i2s/framing.hpp"

#include <stdexcept>

#include "util/crc32.hpp"

namespace aetr::i2s {

// A word is its four little-endian bytes, folded through the shared kernel.
std::uint32_t crc32_update(std::uint32_t state, std::uint32_t word) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(word), static_cast<std::uint8_t>(word >> 8),
      static_cast<std::uint8_t>(word >> 16),
      static_cast<std::uint8_t>(word >> 24)};
  return util::crc32_update(state, bytes, sizeof bytes);
}

std::uint32_t crc32_words(const std::vector<std::uint32_t>& words) {
  std::uint32_t crc = crc32_init();
  for (const std::uint32_t w : words) crc = crc32_update(crc, w);
  return crc32_final(crc);
}

std::vector<std::uint32_t> FrameEncoder::encode(
    const std::vector<aer::AetrWord>& batch) {
  if (batch.size() > kMaxPayload) {
    throw std::invalid_argument("FrameEncoder: batch exceeds 16-bit length");
  }
  std::vector<std::uint32_t> out;
  out.reserve(batch.size() + 2);
  out.push_back((kMagic << 24) | (static_cast<std::uint32_t>(seq_) << 16) |
                static_cast<std::uint32_t>(batch.size()));
  for (const auto& w : batch) out.push_back(w.raw());
  std::vector<std::uint32_t> payload{out.begin() + 1, out.end()};
  out.push_back(crc32_words(payload));
  ++seq_;  // wraps mod 256 by type
  return out;
}

void FrameDecoder::feed(std::uint32_t word) {
  switch (state_) {
    case State::kHunting: {
      if ((word >> 24) != FrameEncoder::kMagic) {
        ++resyncs_;
        return;  // keep hunting
      }
      seq_ = static_cast<std::uint8_t>((word >> 16) & 0xFFu);
      expected_ = word & 0xFFFFu;
      payload_.clear();
      state_ = expected_ == 0 ? State::kTrailer : State::kPayload;
      return;
    }
    case State::kPayload: {
      payload_.push_back(word);
      if (payload_.size() == expected_) state_ = State::kTrailer;
      return;
    }
    case State::kTrailer: {
      state_ = State::kHunting;
      if (word != crc32_words(payload_)) {
        ++crc_errors_;
        return;
      }
      if (have_last_seq_) {
        const auto expected_seq = static_cast<std::uint8_t>(last_seq_ + 1);
        if (seq_ != expected_seq) {
          // Number of frames skipped between the last good one and this.
          seq_gaps_ += static_cast<std::uint8_t>(seq_ - expected_seq);
        }
      }
      last_seq_ = seq_;
      have_last_seq_ = true;
      ++frames_ok_;
      if (on_frame_) {
        std::vector<aer::AetrWord> batch;
        batch.reserve(payload_.size());
        for (const std::uint32_t w : payload_) batch.emplace_back(w);
        on_frame_(seq_, batch);
      }
      return;
    }
  }
}

}  // namespace aetr::i2s
