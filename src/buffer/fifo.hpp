// SRAM-based AETR FIFO buffer (paper §4: 9.2 kB, configurable threshold).
//
// Collected events accumulate here until the batch threshold is crossed, at
// which point the buffer raises its threshold callback and the I2S interface
// drains it in a block — the accumulate-then-batch pattern that lets the
// downstream MCU sleep between transfers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "aer/event.hpp"
#include "fault/injector.hpp"
#include "telemetry/telemetry.hpp"
#include "util/time.hpp"

namespace aetr {
class BlobWriter;
class BlobReader;
}  // namespace aetr

namespace aetr::buffer {

/// What a full FIFO does with the next arriving word.
enum class OverflowPolicy {
  kDropNewest,  ///< the incoming word is lost (paper behaviour: the timed
                ///< event cannot be stalled, the SRAM write is suppressed)
  kDropOldest,  ///< the stalest buffered word is evicted to make room
};

/// Buffer geometry. The paper's 9.2 kB SRAM holds 2300 32-bit AETR words.
struct FifoConfig {
  std::size_t capacity_words = 2300;
  std::size_t batch_threshold = 1024;  ///< raise drain request at this fill
  OverflowPolicy overflow_policy = OverflowPolicy::kDropNewest;
};

/// Word FIFO with occupancy accounting and threshold signalling.
class AetrFifo {
 public:
  using ThresholdFn = std::function<void(Time)>;

  explicit AetrFifo(FifoConfig config = {});

  /// Register the drain-request callback (fires on the push that crosses
  /// the threshold from below, and again only after dropping under it).
  void on_threshold(ThresholdFn fn) { threshold_fn_ = std::move(fn); }

  /// Append a word; returns false (and counts an overflow; the word is
  /// dropped) when full — AER has no way to stall an already-timed event.
  bool push(aer::AetrWord word, Time now);

  /// Remove the oldest word. Reads are saturating: popping an empty FIFO
  /// returns the all-zero bus pattern and counts an underflow instead of
  /// corrupting state (the SRAM read port has no handshake to stall on).
  aer::AetrWord pop(Time now);

  /// Parity verdict of the most recent pop: false when a cell upset was
  /// injected into the returned word and parity checking is enabled — the
  /// reader is expected to drop the word instead of forwarding it.
  [[nodiscard]] bool last_pop_parity_ok() const { return last_pop_parity_ok_; }

  /// SRAM cell-upset lottery. Null is inert.
  void attach_faults(fault::FaultInjector* faults) { faults_ = faults; }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cfg_.capacity_words; }
  [[nodiscard]] const FifoConfig& config() const { return cfg_; }

  /// Runtime threshold reconfiguration (SPI register).
  void set_batch_threshold(std::size_t words);

  /// Attach run telemetry (the FIFO holds no scheduler reference, so the
  /// harness passes the session explicitly). Emits an "occupancy" counter
  /// track, "overflow"/"batch_ready" instants and an occupancy histogram;
  /// registers fifo.* probes.
  void attach_telemetry(telemetry::TelemetrySession* session);

  // --- statistics ----------------------------------------------------------
  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }
  [[nodiscard]] std::uint64_t pops() const { return pops_; }
  [[nodiscard]] std::uint64_t overflows() const { return overflows_; }
  [[nodiscard]] std::uint64_t underflows() const { return underflows_; }
  [[nodiscard]] std::size_t max_occupancy() const { return max_occupancy_; }

  /// Serialize contents + counters (batch_threshold is runtime-mutable via
  /// SPI, so it travels with the state).
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  void push_back(aer::AetrWord word);
  aer::AetrWord pop_front();

  FifoConfig cfg_;
  // The SRAM as a ring of capacity_words raw words, allocated once, at the
  // first push (a FIFO that never buffers costs nothing), so the word path
  // never touches the allocator after that. Words live in
  // cells_[head_ .. head_ + size_), wrapping at the end. The cells start
  // uninitialised: a cell is read only after a push wrote it.
  std::unique_ptr<std::uint32_t[]> cells_;
  std::size_t head_{0};
  std::size_t size_{0};
  ThresholdFn threshold_fn_;
  fault::FaultInjector* faults_{nullptr};
  bool armed_{true};  // threshold edge-triggered re-arm
  bool last_pop_parity_ok_{true};
  std::uint64_t pushes_{0};
  std::uint64_t pops_{0};
  std::uint64_t overflows_{0};
  std::uint64_t underflows_{0};
  std::size_t max_occupancy_{0};
  telemetry::BlockTelemetry tel_;
  LogHistogram* occ_hist_{nullptr};  ///< occupancy sampled at each push
};

}  // namespace aetr::buffer
