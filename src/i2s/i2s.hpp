// I2S carrier for the AETR stream (paper §4: the cochlea's audio nature
// makes I2S the natural MCU-side transport; any I2S-equipped MCU such as the
// STM32-L476 can consume it).
//
// Two layers are provided:
//   * I2sMaster  — word-level drain engine with exact per-word timing and
//     bit-activity accounting; this is what the full-interface simulations
//     use (one DES event per word keeps multi-second runs fast).
//   * I2sWireSerializer / I2sWireReceiver — bit-level Philips-format PHY
//     pair (SCK/WS/SD, MSB first, one-SCK data delay) used by the framing
//     tests and the VCD demos to show the wire protocol is honoured.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "aer/event.hpp"
#include "buffer/fifo.hpp"
#include "fault/injector.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/inplace_function.hpp"
#include "util/time.hpp"

namespace aetr {
class BlobWriter;
class BlobReader;
}  // namespace aetr

namespace aetr::i2s {

/// Serial-clock and framing parameters. The default SCK of 24.576 MHz
/// (512 x 48 kHz, a standard audio master rate) sustains 768 kwords/s —
/// above the 550 kevt/s "noisy environment" peak of the paper.
struct I2sConfig {
  Frequency sck = Frequency::mhz(24.576);
  unsigned word_bits = 32;
  bool drain_until_empty = true;  ///< false: drain exactly one batch
};

/// Word-level I2S master draining the AETR FIFO in batches.
class I2sMaster {
 public:
  /// Downstream word delivery: (word, completion time). One invocation per
  /// word on the wire — hot enough that this is a small-buffer
  /// InplaceFunction (inline captures, no allocator round-trip), matching
  /// frontend::AerFrontEnd::WordFn.
  using WordFn = util::InplaceFunction<void(aer::AetrWord, Time)>;

  I2sMaster(sim::Scheduler& sched, buffer::AetrFifo& fifo,
            I2sConfig config = {});

  void on_word(WordFn fn) { word_fn_ = std::move(fn); }

  /// Notified when a drain completes (the FIFO emptied / batch finished).
  using DrainDoneFn = std::function<void(Time)>;
  void on_drain_done(DrainDoneFn fn) { drain_done_fn_ = std::move(fn); }

  /// Request a batch drain (the FIFO threshold callback). No-op if already
  /// draining.
  void request_drain(Time now);

  [[nodiscard]] bool draining() const { return draining_; }
  [[nodiscard]] Time word_time() const {
    return sck_period_ * static_cast<Time::Rep>(cfg_.word_bits);
  }

  /// Serial-line bit-error lottery + CRC batch framing (when the plan's
  /// recovery enables it). Null is inert.
  void attach_faults(fault::FaultInjector* faults);

  // --- word step -----------------------------------------------------------
  // A drain pops one word per word time. step_word() is that pop, called at
  // the deadline next_word_due() returns; it arms the next deadline or
  // finishes the drain. On the event-driven path each deadline is a
  // scheduled event that calls it. In external-drive mode nothing is
  // scheduled: the analytic interpreter (core/fast_path) polls the deadline
  // and calls step_word() itself, interleaving word pops with FIFO pushes
  // in exact timeline order. Not compatible with CRC batch framing (fault
  // runs never take the fast path).
  void set_external_drive(bool on) { external_drive_ = on; }
  [[nodiscard]] Time next_word_due() const { return next_due_; }
  void step_word(Time now);

  // --- statistics ----------------------------------------------------------
  [[nodiscard]] std::uint64_t words_sent() const { return words_sent_; }
  [[nodiscard]] std::uint64_t bits_shifted() const { return bits_shifted_; }
  [[nodiscard]] std::uint64_t drains() const { return drains_; }
  [[nodiscard]] Time busy_time() const { return busy_accum_; }

  /// Serialize counters/accumulators. Requires no drain in flight (the
  /// per-word DES callbacks cannot be serialized, so the session advances
  /// past the drain first). crc_active_ is reconstructed by attach_faults.
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  void arm_word(Time due);
  void finish_drain(Time now);
  void complete_drain(Time now);
  [[nodiscard]] std::uint32_t apply_line_noise(std::uint32_t raw);

  sim::Scheduler& sched_;
  buffer::AetrFifo& fifo_;
  I2sConfig cfg_;
  Time sck_period_;
  WordFn word_fn_;
  DrainDoneFn drain_done_fn_;
  fault::FaultInjector* faults_{nullptr};
  bool crc_active_{false};
  std::vector<std::uint32_t> batch_words_;  ///< shifter-side words (pre-noise)
  bool draining_{false};
  bool external_drive_{false};
  Time next_due_{Time::max()};        ///< next word pop
  std::size_t batch_remaining_{0};    ///< words left in this batch
  Time drain_start_{Time::zero()};
  std::uint64_t words_sent_{0};
  std::uint64_t bits_shifted_{0};
  std::uint64_t drains_{0};
  Time busy_accum_{Time::zero()};
  // "drain" spans cover request -> batch completion; "word" instants mark
  // each word leaving on the wire. Last: off the word-loop cache lines.
  telemetry::BlockTelemetry tel_;
};

/// Philips-I2S bit-level serializer: drives SCK/WS/SD callbacks for every
/// half-period so tests (and VCD dumps) can observe the real waveform.
/// Stereo frame: WS=0 carries the left slot, WS=1 the right; data is MSB
/// first and delayed one SCK period after each WS transition.
class I2sWireSerializer {
 public:
  struct Wire {
    bool sck;
    bool ws;
    bool sd;
    Time at;
  };
  using WireFn = std::function<void(const Wire&)>;

  I2sWireSerializer(sim::Scheduler& sched, I2sConfig config = {});

  void on_wire(WireFn fn) { wire_fn_ = std::move(fn); }

  /// Serialise `words` starting now; invokes `done` when the last frame
  /// closes. Words pair up into stereo frames (left, right, left, ...);
  /// an odd tail is padded with a zero word.
  void transmit(const std::vector<aer::AetrWord>& words,
                std::function<void(Time)> done);

 private:
  void emit_half(bool rising);

  sim::Scheduler& sched_;
  I2sConfig cfg_;
  Time half_period_;
  WireFn wire_fn_;
  std::vector<aer::AetrWord> queue_;
  std::function<void(Time)> done_;
  std::size_t bit_index_{0};  // global bit position across the burst
  bool active_{false};
};

/// Bit-level receiver: samples SD on SCK rising edges and reassembles the
/// word stream (the MCU side of the wire tests).
class I2sWireReceiver {
 public:
  explicit I2sWireReceiver(unsigned word_bits = 32);

  /// Feed one wire snapshot (call on every serializer callback).
  void on_wire(const I2sWireSerializer::Wire& w);

  [[nodiscard]] const std::vector<aer::AetrWord>& words() const {
    return words_;
  }

 private:
  unsigned word_bits_;
  bool last_sck_{false};
  bool last_ws_{false};
  bool ws_delay_pending_{true};
  std::uint64_t shift_{0};
  unsigned bits_{0};
  std::vector<aer::AetrWord> words_;
};

}  // namespace aetr::i2s
