#include "spi/spi.hpp"

#include <utility>

#include "util/blob.hpp"

namespace aetr::spi {

void ConfigBus::map(Reg reg, ReadFn read, WriteFn write) {
  auto& slot = slots_[static_cast<std::size_t>(reg) & 0x7F];
  slot.read = std::move(read);
  slot.write = std::move(write);
}

std::uint8_t ConfigBus::read(std::uint8_t addr) const {
  const auto& slot = slots_[addr & 0x7F];
  return slot.read ? slot.read() : 0;
}

void ConfigBus::write(std::uint8_t addr, std::uint8_t value) {
  const auto& slot = slots_[addr & 0x7F];
  if (slot.write) {
    slot.write(value);
  } else {
    ++ignored_writes_;
  }
}

void SpiSlave::set_csn(bool csn) {
  if (csn_ && !csn) {
    // Selected: reset the shift machinery for a fresh transaction.
    bit_count_ = 0;
    shift_in_ = 0;
    shift_out_ = 0;
    miso_ = false;
    corrupt_bit_ = -1;
  }
  csn_ = csn;
}

void SpiSlave::sck_rise(bool mosi) {
  if (csn_) return;
  if (faults_ != nullptr) {
    if (bit_count_ == 0) {
      // One lottery per 16-bit frame: pick the bit (if any) that the noisy
      // MOSI sampling path will invert.
      corrupt_bit_ =
          faults_->roll(fault::Site::kSpiWord,
                        faults_->plan().spi.word_bit_flip_prob)
              ? static_cast<int>(faults_->pick_bit(fault::Site::kSpiWord, 16))
              : -1;
    }
    if (corrupt_bit_ == static_cast<int>(bit_count_)) {
      mosi = !mosi;
      ++faults_->counters().spi_corrupted;
    }
  }
  ++bits_clocked_;
  shift_in_ = static_cast<std::uint16_t>(
      (static_cast<unsigned>(shift_in_) << 1) | (mosi ? 1u : 0u));
  ++bit_count_;
  if (bit_count_ == 8) {
    // Command byte complete: decode R/W + address; preload read data.
    is_write_ = (shift_in_ & 0x80u) != 0;
    addr_ = static_cast<std::uint8_t>(shift_in_ & 0x7Fu);
    if (!is_write_) shift_out_ = bus_.read(addr_);
  } else if (bit_count_ == 16) {
    if (is_write_) bus_.write(addr_, static_cast<std::uint8_t>(shift_in_ & 0xFFu));
    ++transactions_;
    bit_count_ = 0;
    shift_in_ = 0;
  }
}

void SpiSlave::sck_fall() {
  if (csn_) return;
  // During the data phase of a read, shift the register out MSB first.
  if (bit_count_ >= 8 && !is_write_) {
    const unsigned idx = 7 - (bit_count_ - 8);
    miso_ = (static_cast<unsigned>(shift_out_) >> idx) & 1u;
  } else {
    miso_ = false;
  }
}

void ConfigBus::save_state(BlobWriter& w) const { w.u64(ignored_writes_); }

void ConfigBus::restore_state(BlobReader& r) { ignored_writes_ = r.u64(); }

void SpiSlave::save_state(BlobWriter& w) const {
  w.i64(corrupt_bit_);
  w.b(csn_);
  w.b(miso_);
  w.u32(bit_count_);
  w.u16(shift_in_);
  w.u8(shift_out_);
  w.b(is_write_);
  w.u8(addr_);
  w.u64(transactions_);
  w.u64(bits_clocked_);
}

void SpiSlave::restore_state(BlobReader& r) {
  corrupt_bit_ = static_cast<int>(r.i64());
  csn_ = r.b();
  miso_ = r.b();
  bit_count_ = static_cast<unsigned>(r.u32());
  shift_in_ = r.u16();
  shift_out_ = r.u8();
  is_write_ = r.b();
  addr_ = r.u8();
  transactions_ = r.u64();
  bits_clocked_ = r.u64();
}

SpiMaster::SpiMaster(sim::Scheduler& sched, SpiSlave& slave, Frequency sck)
    : sched_{sched}, slave_{slave}, half_period_{sck.period() / 2} {}

void SpiMaster::write(Reg reg, std::uint8_t value) {
  const auto frame = static_cast<std::uint16_t>(
      0x8000u | (static_cast<unsigned>(reg) << 8) | value);
  queue_.push_back(Txn{frame, nullptr});
  if (!busy_) start_next();
}

void SpiMaster::read(Reg reg, std::function<void(std::uint8_t)> done) {
  const auto frame =
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(reg) << 8);
  queue_.push_back(Txn{frame, std::move(done)});
  if (!busy_) start_next();
}

void SpiMaster::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Txn txn = std::move(queue_.front());
  queue_.erase(queue_.begin());
  slave_.set_csn(false);
  clock_bit(std::move(txn), 0, 0);
}

void SpiMaster::clock_bit(Txn txn, unsigned bit, std::uint16_t miso_accum) {
  if (bit == 16) {
    slave_.set_csn(true);
    if (txn.done) txn.done(static_cast<std::uint8_t>(miso_accum & 0xFFu));
    sched_.schedule_after(half_period_, [this] { start_next(); });
    return;
  }
  // Mode 0: master drives MOSI, then raises SCK (slave samples), then
  // lowers it (slave updates MISO); master samples MISO on the rise.
  const bool mosi = (static_cast<unsigned>(txn.frame) >> (15 - bit)) & 1u;
  auto rise = [this, txn = std::move(txn), bit, miso_accum, mosi]() mutable {
    const auto accum = static_cast<std::uint16_t>(
        (static_cast<unsigned>(miso_accum) << 1) | (slave_.miso() ? 1u : 0u));
    slave_.sck_rise(mosi);
    sched_.schedule_after(
        half_period_, [this, txn = std::move(txn), bit, accum]() mutable {
          slave_.sck_fall();
          clock_bit(std::move(txn), bit + 1, accum);
        });
  };
  // The library's largest scheduled capture — keep it within the inline
  // budget so the bit-clocking loop stays allocation-free.
  static_assert(sim::Scheduler::Callback::stores_inline<decltype(rise)>());
  sched_.schedule_after(half_period_, std::move(rise));
}

}  // namespace aetr::spi
