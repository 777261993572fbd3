// Core event types: raw AER events (stimulus level) and AETR words (the
// timestamp-augmented representation the interface produces, §3 of the
// paper).
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace aetr::aer {

/// Width of the AER address bus (paper Fig. 4: 10-bit ADDR register,
/// matching the DAS1 cochlea's channel/ear/neuron encoding).
inline constexpr unsigned kAddressBits = 10;
inline constexpr std::uint16_t kAddressMask = (1u << kAddressBits) - 1u;

/// The latest event time the simulator accepts: half of Time's range, so
/// every delay the pipeline adds after an event (handshake, capture,
/// cooldown, drain) is still a Time. Session::feed/feed_all, the ingest
/// pump and TraceReader refuse anything later.
inline constexpr Time kLatestEventTime = Time::max() / 2;

/// A raw sensor spike: which "neuron" fired and when. The time is the
/// simulator's ground truth; in hardware it is implicit in the handshake.
struct Event {
  std::uint16_t address{0};
  Time time{Time::zero()};

  friend bool operator==(const Event&, const Event&) = default;
};

/// Address-Event-Time-Representation word (§3): a 32-bit record carrying the
/// 10-bit spike address and a 22-bit timestamp measured as the delta from
/// the previous spike, in units of the base sampling period Tmin.
///
/// The all-ones timestamp is the saturation marker used when the inter-spike
/// interval exceeded the measurable range (the clock had been switched off):
/// the paper tags such events "with the saturated timestamp".
class AetrWord {
 public:
  static constexpr unsigned kTimestampBits = 22;
  static constexpr std::uint32_t kTimestampMask = (1u << kTimestampBits) - 1u;
  static constexpr std::uint32_t kSaturated = kTimestampMask;

  constexpr AetrWord() = default;
  constexpr explicit AetrWord(std::uint32_t raw) : raw_{raw} {}

  /// Build from fields; timestamps beyond the field width saturate.
  [[nodiscard]] static constexpr AetrWord make(std::uint16_t address,
                                               std::uint64_t timestamp_ticks) {
    const std::uint32_t ts =
        timestamp_ticks >= kSaturated
            ? kSaturated
            : static_cast<std::uint32_t>(timestamp_ticks);
    return AetrWord{(static_cast<std::uint32_t>(address & kAddressMask)
                     << kTimestampBits) |
                    ts};
  }

  /// Build an explicitly saturated word.
  [[nodiscard]] static constexpr AetrWord saturated(std::uint16_t address) {
    return make(address, kSaturated);
  }

  [[nodiscard]] constexpr std::uint32_t raw() const { return raw_; }
  [[nodiscard]] constexpr std::uint16_t address() const {
    return static_cast<std::uint16_t>((raw_ >> kTimestampBits) & kAddressMask);
  }
  [[nodiscard]] constexpr std::uint32_t timestamp_ticks() const {
    return raw_ & kTimestampMask;
  }
  [[nodiscard]] constexpr bool is_saturated() const {
    return timestamp_ticks() == kSaturated;
  }

  /// Timestamp in wall time given the base sampling period (tick unit).
  [[nodiscard]] Time timestamp(Time tick_unit) const {
    return tick_unit * static_cast<Time::Rep>(timestamp_ticks());
  }

  friend constexpr bool operator==(const AetrWord&, const AetrWord&) = default;

 private:
  std::uint32_t raw_{0};
};

/// A decoded AETR record with the reconstructed absolute time (MCU side).
struct TimedEvent {
  std::uint16_t address{0};
  Time reconstructed_time{Time::zero()};
  bool saturated{false};
};

using EventStream = std::vector<Event>;

}  // namespace aetr::aer
