#include "mcu/consumer.hpp"

#include <algorithm>
#include <cmath>

#include "i2s/framing.hpp"
#include "util/blob.hpp"

namespace aetr::mcu {

AetrDecoder::AetrDecoder(Time tick_unit, Time saturation_span)
    : tick_unit_{tick_unit}, saturation_span_{saturation_span} {}

aer::TimedEvent AetrDecoder::decode(aer::AetrWord word) {
  aer::TimedEvent ev;
  ev.address = word.address();
  ev.saturated = word.is_saturated();
  if (ev.saturated) {
    clock_ += saturation_span_;
    ++saturated_;
  } else {
    clock_ += tick_unit_ * static_cast<Time::Rep>(word.timestamp_ticks());
  }
  ev.reconstructed_time = clock_;
  ++decoded_;
  return ev;
}

void AetrDecoder::reset(Time origin) {
  clock_ = origin;
  decoded_ = 0;
  saturated_ = 0;
}

RateEstimator::RateEstimator(Time tau) : tau_sec_{tau.to_sec()} {}

void RateEstimator::add(Time t) {
  if (!primed_) {
    primed_ = true;
    last_ = t;
    level_ = 0.0;
    return;
  }
  const double dt = std::max((t - last_).to_sec(), 1e-12);
  // Decay the previous estimate over dt, then add this event's contribution
  // (an exponential kernel of area 1 and time constant tau).
  level_ = level_ * std::exp(-dt / tau_sec_) + 1.0 / tau_sec_;
  last_ = t;
}

double RateEstimator::rate_hz(Time now) const {
  if (!primed_) return 0.0;
  const double dt = std::max((now - last_).to_sec(), 0.0);
  return level_ * std::exp(-dt / tau_sec_);
}

TimeFrequencyMap::TimeFrequencyMap(std::size_t groups, Time bin_width,
                                   GroupFn group_of)
    : groups_{groups},
      bin_width_{bin_width},
      group_of_{std::move(group_of)},
      counts_(groups) {}

void TimeFrequencyMap::add(const aer::TimedEvent& ev) {
  const std::size_t g = group_of_(ev.address);
  if (g >= groups_) return;
  const auto bin = static_cast<std::size_t>(
      ev.reconstructed_time.count_ps() / bin_width_.count_ps());
  auto& row = counts_[g];
  if (bin >= row.size()) row.resize(bin + 1, 0);
  ++row[bin];
  ++total_;
}

std::size_t TimeFrequencyMap::bins() const {
  std::size_t b = 0;
  for (const auto& row : counts_) b = std::max(b, row.size());
  return b;
}

std::uint64_t TimeFrequencyMap::count(std::size_t group,
                                      std::size_t bin) const {
  if (group >= groups_ || bin >= counts_[group].size()) return 0;
  return counts_[group][bin];
}

std::string TimeFrequencyMap::ascii() const {
  static constexpr char kShades[] = " .:-=+*#%@";
  const std::size_t nbins = bins();
  std::uint64_t peak = 1;
  for (const auto& row : counts_) {
    for (auto c : row) peak = std::max(peak, c);
  }
  std::string out;
  for (std::size_t g = groups_; g-- > 0;) {
    for (std::size_t b = 0; b < nbins; ++b) {
      const std::uint64_t c = count(g, b);
      const auto idx = static_cast<std::size_t>(
          std::llround(static_cast<double>(c) / static_cast<double>(peak) * 9));
      out.push_back(kShades[std::min<std::size_t>(idx, 9)]);
    }
    out.push_back('\n');
  }
  return out;
}

McuConsumer::McuConsumer(Time tick_unit, Time saturation_span, Time batch_gap)
    : decoder_{tick_unit, saturation_span}, batch_gap_{batch_gap} {}

void McuConsumer::attach_faults(fault::FaultInjector* faults) {
  faults_ = faults;
  crc_gate_ = faults != nullptr && fault::crc_framing_active(faults->plan());
  running_crc_ = i2s::crc32_init();
}

void McuConsumer::on_word(aer::AetrWord word, Time arrival) {
  if (!any_ || arrival - last_arrival_ > batch_gap_) {
    // A bus-idle gap can only fall between drains, so an unterminated CRC
    // payload at a gap means the frame trailer was corrupted: reject it.
    if (crc_gate_) reject_pending(arrival);
    ++batches_;
    if (tel_.tracing()) [[unlikely]] {
      tel_.instant("batch_start", arrival,
                   {{"batch", static_cast<double>(batches_)}});
    }
  } else {
    bus_active_ += arrival - last_arrival_;
  }
  any_ = true;
  last_arrival_ = arrival;
  ++words_;
  if (crc_gate_) {
    if (!pending_.empty() && word.raw() == i2s::crc32_final(running_crc_)) {
      // The trailer matches the payload hash: accept the whole batch.
      for (const std::uint32_t raw : pending_) {
        decode_one(aer::AetrWord{raw}, arrival);
      }
      pending_.clear();
      running_crc_ = i2s::crc32_init();
      return;
    }
    pending_.push_back(word.raw());
    running_crc_ = i2s::crc32_update(running_crc_, word.raw());
    return;
  }
  decode_one(word, arrival);
}

void McuConsumer::decode_one(aer::AetrWord word, Time arrival) {
  const aer::TimedEvent ev = decoder_.decode(word);
  if (ev.saturated) tel_.instant("saturated_decode", arrival);
  if (keep_events_) events_.push_back(ev);
}

void McuConsumer::reject_pending(Time now) {
  if (pending_.empty()) return;
  ++faults_->counters().crc_rejected_batches;
  faults_->counters().crc_rejected_words += pending_.size();
  if (tel_.tracing()) [[unlikely]] {
    tel_.instant("crc_reject", now,
                 {{"words", static_cast<double>(pending_.size())}});
  }
  pending_.clear();
  running_crc_ = i2s::crc32_init();
}

void McuConsumer::finish(Time now) {
  if (crc_gate_) reject_pending(now);
}

void McuConsumer::attach_telemetry(telemetry::TelemetrySession* session) {
  tel_ = telemetry::BlockTelemetry{session, "mcu"};
  if (auto* m = tel_.metrics()) {
    m->probe("mcu.words",
             [this](Time) { return static_cast<double>(words_); });
    m->probe("mcu.batches",
             [this](Time) { return static_cast<double>(batches_); });
    m->probe("mcu.decoded", [this](Time) {
      return static_cast<double>(decoder_.decoded());
    });
    m->probe("mcu.saturated", [this](Time) {
      return static_cast<double>(decoder_.saturated());
    });
    m->probe("mcu.bus_active_s",
             [this](Time) { return bus_active_.to_sec(); });
  }
}

void McuConsumer::save_state(BlobWriter& w) const {
  const auto ds = decoder_.state();
  w.time(ds.clock);
  w.u64(ds.decoded);
  w.u64(ds.saturated);
  w.u64(events_.size());
  for (const auto& ev : events_) {
    w.u16(ev.address);
    w.time(ev.reconstructed_time);
    w.b(ev.saturated);
  }
  w.u64(pending_.size());
  for (const std::uint32_t raw : pending_) w.u32(raw);
  w.u32(running_crc_);
  w.u64(batches_);
  w.u64(words_);
  w.time(last_arrival_);
  w.time(bus_active_);
  w.b(any_);
  w.b(keep_events_);
}

void McuConsumer::restore_state(BlobReader& r) {
  AetrDecoder::State ds{};
  ds.clock = r.time();
  ds.decoded = r.u64();
  ds.saturated = r.u64();
  decoder_.set_state(ds);
  events_.clear();
  const auto ne = r.count(2 + 8 + 1);  // u16, time, bool
  events_.reserve(ne);
  for (std::uint64_t i = 0; i < ne; ++i) {
    aer::TimedEvent ev;
    ev.address = r.u16();
    ev.reconstructed_time = r.time();
    ev.saturated = r.b();
    events_.push_back(ev);
  }
  pending_.clear();
  const auto np = r.count(4);
  pending_.reserve(np);
  for (std::uint64_t i = 0; i < np; ++i) pending_.push_back(r.u32());
  running_crc_ = r.u32();
  batches_ = r.u64();
  words_ = r.u64();
  last_arrival_ = r.time();
  bus_active_ = r.time();
  any_ = r.b();
  keep_events_ = r.b();
}

}  // namespace aetr::mcu
