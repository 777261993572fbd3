#include "i2s/i2s.hpp"

#include <cassert>
#include <utility>

#include <stdexcept>

#include "i2s/framing.hpp"
#include "util/blob.hpp"

namespace aetr::i2s {

I2sMaster::I2sMaster(sim::Scheduler& sched, buffer::AetrFifo& fifo,
                     I2sConfig config)
    : sched_{sched},
      fifo_{fifo},
      cfg_{config},
      sck_period_{config.sck.period()},
      tel_{sched.telemetry(), "i2s"} {
  if (auto* m = tel_.metrics()) {
    m->probe("i2s.words_sent", [this](Time) {
      return static_cast<double>(words_sent_);
    });
    m->probe("i2s.drains",
             [this](Time) { return static_cast<double>(drains_); });
    m->probe("i2s.busy_s", [this](Time) { return busy_accum_.to_sec(); });
    m->probe("i2s.bits_shifted", [this](Time) {
      return static_cast<double>(bits_shifted_);
    });
  }
}

void I2sMaster::attach_faults(fault::FaultInjector* faults) {
  faults_ = faults;
  crc_active_ = faults != nullptr && fault::crc_framing_active(faults->plan());
}

void I2sMaster::request_drain(Time now) {
  if (draining_) return;
  if (fifo_.empty()) return;
  draining_ = true;
  ++drains_;
  drain_start_ = now;
  tel_.begin("drain", now,
             {{"backlog", static_cast<double>(fifo_.size())}});
  batch_remaining_ = fifo_.size();
  arm_word(now + word_time());
}

void I2sMaster::arm_word(Time due) {
  next_due_ = due;
  if (!external_drive_) {
    sched_.schedule_at(due, [this] { step_word(sched_.now()); });
  }
}

std::uint32_t I2sMaster::apply_line_noise(std::uint32_t raw) {
  const double ber = faults_->plan().i2s.bit_error_rate;
  if (ber <= 0.0) return raw;
  for (unsigned b = 0; b < cfg_.word_bits && b < 32; ++b) {
    if (faults_->roll(fault::Site::kI2sLink, ber)) {
      raw ^= 1u << b;
      ++faults_->counters().i2s_bit_errors;
    }
  }
  return raw;
}

void I2sMaster::complete_drain(Time now) {
  draining_ = false;
  busy_accum_ += now - drain_start_;
  tel_.end("drain", now);
  if (drain_done_fn_) drain_done_fn_(now);
}

void I2sMaster::finish_drain(Time now) {
  if (!crc_active_ || batch_words_.empty()) {
    complete_drain(now);
    return;
  }
  // CRC batch framing: one extra word slot carries the CRC-32 of the words
  // the shifter transmitted this drain. The CRC word rides the same noisy
  // line as the payload.
  assert(!external_drive_);  // fault runs (CRC framing) never fast-forward
  const std::uint32_t crc = crc32_words(batch_words_);
  batch_words_.clear();
  sched_.schedule_after(word_time(), [this, crc] {
    ++words_sent_;
    bits_shifted_ += cfg_.word_bits;
    if (tel_.tracing()) [[unlikely]] {
      tel_.instant("crc_word", sched_.now());
    }
    if (word_fn_) word_fn_(aer::AetrWord{apply_line_noise(crc)}, sched_.now());
    complete_drain(sched_.now());
  });
}

void I2sMaster::step_word(Time now) {
  assert(draining_ && now == next_due_);
  next_due_ = Time::max();
  if (fifo_.empty()) {  // defensive: nothing to send after all
    finish_drain(now);
    return;
  }
  const aer::AetrWord word = fifo_.pop(now);
  ++words_sent_;
  bits_shifted_ += cfg_.word_bits;
  if (tel_.tracing()) [[unlikely]] {
    tel_.instant("word", now,
                 {{"remaining", static_cast<double>(fifo_.size())}});
  }
  if (faults_ != nullptr && !fifo_.last_pop_parity_ok()) {
    // Parity-checked read caught a cell upset: the slot was consumed but
    // the corrupt word is suppressed instead of forwarded.
  } else {
    std::uint32_t raw = word.raw();
    if (faults_ != nullptr) raw = apply_line_noise(raw);
    if (crc_active_) batch_words_.push_back(word.raw());
    if (word_fn_) word_fn_(aer::AetrWord{raw}, now);
  }
  const std::size_t next_remaining =
      cfg_.drain_until_empty ? fifo_.size() : batch_remaining_ - 1;
  if (fifo_.empty() || next_remaining == 0) {
    finish_drain(now);
    return;
  }
  batch_remaining_ = next_remaining;
  arm_word(now + word_time());
}

void I2sMaster::save_state(BlobWriter& w) const {
  if (draining_) {
    throw std::logic_error("I2sMaster: save_state while draining");
  }
  w.u64(words_sent_);
  w.u64(bits_shifted_);
  w.u64(drains_);
  w.time(busy_accum_);
}

void I2sMaster::restore_state(BlobReader& r) {
  draining_ = false;
  batch_words_.clear();
  words_sent_ = r.u64();
  bits_shifted_ = r.u64();
  drains_ = r.u64();
  busy_accum_ = r.time();
}

I2sWireSerializer::I2sWireSerializer(sim::Scheduler& sched, I2sConfig config)
    : sched_{sched},
      cfg_{config},
      half_period_{config.sck.period() / 2} {}

void I2sWireSerializer::transmit(const std::vector<aer::AetrWord>& words,
                                 std::function<void(Time)> done) {
  assert(!active_);
  if (words.empty()) {
    if (done) done(sched_.now());
    return;
  }
  queue_ = words;
  if (queue_.size() % 2 != 0) queue_.emplace_back();  // pad the stereo frame
  done_ = std::move(done);
  bit_index_ = 0;
  active_ = true;
  emit_half(false);  // first falling edge launches the burst
}

void I2sWireSerializer::emit_half(bool rising) {
  // Cycle c: WS = parity of (c / word_bits); SD carries bit (c-1) of the
  // burst (one-SCK Philips delay), MSB first within each word.
  const std::size_t c = bit_index_;
  const std::size_t total_cycles = queue_.size() * cfg_.word_bits;
  const std::size_t slot = (c / cfg_.word_bits) % queue_.size();
  const bool ws = (c / cfg_.word_bits) % 2 != 0;
  bool sd = false;
  if (c >= 1 && c - 1 < total_cycles) {
    const std::size_t data_slot = (c - 1) / cfg_.word_bits;
    const unsigned bit = cfg_.word_bits - 1 -
                         static_cast<unsigned>((c - 1) % cfg_.word_bits);
    sd = (queue_[data_slot].raw() >> bit) & 1u;
  }
  (void)slot;
  if (wire_fn_) wire_fn_(Wire{rising, ws, sd, sched_.now()});

  if (rising) {
    if (c >= total_cycles) {
      active_ = false;
      auto done = std::move(done_);
      queue_.clear();
      if (done) done(sched_.now());
      return;
    }
    ++bit_index_;
  }
  sched_.schedule_after(half_period_, [this, rising] { emit_half(!rising); });
}

I2sWireReceiver::I2sWireReceiver(unsigned word_bits) : word_bits_{word_bits} {}

void I2sWireReceiver::on_wire(const I2sWireSerializer::Wire& w) {
  if (!w.sck) {
    last_sck_ = false;
    return;
  }
  if (last_sck_) return;  // not a rising transition
  last_sck_ = true;

  if (ws_delay_pending_) {
    // The very first rising edge carries the dummy delay bit.
    ws_delay_pending_ = false;
    last_ws_ = w.ws;
    return;
  }
  shift_ = (shift_ << 1) | (w.sd ? 1u : 0u);
  ++bits_;
  if (bits_ == word_bits_) {
    words_.emplace_back(static_cast<std::uint32_t>(shift_));
    shift_ = 0;
    bits_ = 0;
  }
  if (w.ws != last_ws_) {
    last_ws_ = w.ws;
    if (bits_ != 0) {
      // Frame slip: realign on the channel boundary.
      shift_ = 0;
      bits_ = 0;
    }
  }
}

}  // namespace aetr::i2s
