#include "buffer/fifo.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/blob.hpp"

namespace aetr::buffer {

AetrFifo::AetrFifo(FifoConfig config) : cfg_{config} {
  if (cfg_.capacity_words == 0) {
    throw std::invalid_argument("AetrFifo: capacity must be > 0");
  }
  if (cfg_.batch_threshold == 0 || cfg_.batch_threshold > cfg_.capacity_words) {
    throw std::invalid_argument(
        "AetrFifo: batch threshold must be in [1, capacity]");
  }
}

void AetrFifo::push_back(aer::AetrWord word) {
  if (!cells_) {
    cells_ = std::make_unique_for_overwrite<std::uint32_t[]>(
        cfg_.capacity_words);
  }
  std::size_t tail = head_ + size_;
  if (tail >= cfg_.capacity_words) tail -= cfg_.capacity_words;
  cells_[tail] = word.raw();
  ++size_;
}

aer::AetrWord AetrFifo::pop_front() {
  const aer::AetrWord word{cells_[head_]};
  if (++head_ == cfg_.capacity_words) head_ = 0;
  --size_;
  return word;
}

bool AetrFifo::push(aer::AetrWord word, Time now) {
  // Per-word hot path: one tracing() test guards each emission cluster so
  // the disabled path never materialises the TraceArg lists.
  if (size_ >= cfg_.capacity_words) {
    ++overflows_;
    if (tel_.tracing()) [[unlikely]] {
      tel_.instant("overflow", now,
                   {{"occupancy", static_cast<double>(size_)}});
    }
    if (cfg_.overflow_policy == OverflowPolicy::kDropNewest) return false;
    // kDropOldest: evict the stalest word to keep the freshest timing info
    // (the overflow above counts the evicted word as lost).
    (void)pop_front();
  }
  push_back(word);
  ++pushes_;
  max_occupancy_ = std::max(max_occupancy_, size_);
  if (tel_.tracing()) [[unlikely]] {
    tel_.counter("occupancy", now, static_cast<double>(size_));
  }
  if (occ_hist_ != nullptr) [[unlikely]] {
    occ_hist_->add(static_cast<double>(size_));
  }
  if (armed_ && size_ >= cfg_.batch_threshold) {
    armed_ = false;
    if (tel_.tracing()) [[unlikely]] {
      tel_.instant("batch_ready", now,
                   {{"occupancy", static_cast<double>(size_)},
                    {"threshold", static_cast<double>(cfg_.batch_threshold)}});
    }
    if (threshold_fn_) threshold_fn_(now);
  }
  return true;
}

aer::AetrWord AetrFifo::pop(Time now) {
  last_pop_parity_ok_ = true;
  if (size_ == 0) {
    // Saturating read: the SRAM read port returns the idle bus pattern.
    ++underflows_;
    return aer::AetrWord{};
  }
  aer::AetrWord word = pop_front();
  ++pops_;
  if (faults_ != nullptr &&
      faults_->roll(fault::Site::kFifoCell,
                    faults_->plan().fifo.cell_bit_flip_prob)) {
    // A cell upset while the word was resident, observed at the read port.
    word = aer::AetrWord{
        word.raw() ^ (1u << faults_->pick_bit(fault::Site::kFifoCell, 32))};
    ++faults_->counters().fifo_bit_flips;
    if (faults_->plan().recovery.fifo_parity) {
      // The per-word parity bit catches single-bit upsets; the reader is
      // told to drop the word rather than forward a corrupt timestamp.
      last_pop_parity_ok_ = false;
      ++faults_->counters().fifo_parity_drops;
    }
  }
  if (tel_.tracing()) [[unlikely]] {
    tel_.counter("occupancy", now, static_cast<double>(size_));
  }
  if (size_ < cfg_.batch_threshold) armed_ = true;
  return word;
}

void AetrFifo::set_batch_threshold(std::size_t words) {
  if (words == 0 || words > cfg_.capacity_words) {
    throw std::invalid_argument(
        "AetrFifo: batch threshold must be in [1, capacity]");
  }
  cfg_.batch_threshold = words;
  // Re-arm: if the occupancy already sits at/above the new threshold the
  // next push delivers the (still unconsumed) crossing notification.
  armed_ = true;
}

void AetrFifo::attach_telemetry(telemetry::TelemetrySession* session) {
  tel_ = telemetry::BlockTelemetry{session, "fifo"};
  if (auto* m = tel_.metrics()) {
    m->probe("fifo.occupancy", [this](Time) {
      return static_cast<double>(size_);
    });
    m->probe("fifo.pushes", [this](Time) {
      return static_cast<double>(pushes_);
    });
    m->probe("fifo.pops", [this](Time) { return static_cast<double>(pops_); });
    m->probe("fifo.overflows", [this](Time) {
      return static_cast<double>(overflows_);
    });
    m->probe("fifo.underflows", [this](Time) {
      return static_cast<double>(underflows_);
    });
    m->probe("fifo.max_occupancy", [this](Time) {
      return static_cast<double>(max_occupancy_);
    });
    occ_hist_ = m->log_histogram("fifo.occupancy_words", 1.0,
                                 static_cast<double>(cfg_.capacity_words) * 2.0,
                                 4);
  }
}

void AetrFifo::save_state(BlobWriter& w) const {
  w.u64(cfg_.batch_threshold);
  w.u64(size_);
  for (std::size_t i = 0, at = head_; i < size_; ++i) {
    w.u32(cells_[at]);
    if (++at == cfg_.capacity_words) at = 0;
  }
  w.b(armed_);
  w.b(last_pop_parity_ok_);
  w.u64(pushes_);
  w.u64(pops_);
  w.u64(overflows_);
  w.u64(underflows_);
  w.u64(max_occupancy_);
}

void AetrFifo::restore_state(BlobReader& r) {
  cfg_.batch_threshold = static_cast<std::size_t>(r.u64());
  head_ = 0;
  size_ = 0;
  const auto n = r.u64();
  if (n > cfg_.capacity_words) {
    throw std::runtime_error("AetrFifo: restored occupancy exceeds capacity");
  }
  for (std::uint64_t i = 0; i < n; ++i) push_back(aer::AetrWord{r.u32()});
  armed_ = r.b();
  last_pop_parity_ok_ = r.b();
  pushes_ = r.u64();
  pops_ = r.u64();
  overflows_ = r.u64();
  underflows_ = r.u64();
  max_occupancy_ = static_cast<std::size_t>(r.u64());
}

}  // namespace aetr::buffer
