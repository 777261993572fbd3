#include "aer/caviar.hpp"

#include "util/blob.hpp"

namespace aetr::aer {

CaviarChecker::CaviarChecker(AerChannel& channel, Time bound) : bound_{bound} {
  channel.on_req_change([this](bool level, Time t) {
    if (level) {
      req_rise_ = t;
      in_flight_ = true;
    }
  });
  channel.on_ack_change([this](bool level, Time t) {
    if (!level && in_flight_) {
      in_flight_ = false;
      ++checked_;
      durations_.add((t - req_rise_).to_sec());
      if (t - req_rise_ > bound_) ++violation_count_;
    }
  });
}

void CaviarChecker::save_state(BlobWriter& w) const {
  w.time(req_rise_);
  w.b(in_flight_);
  w.u64(checked_);
  w.u64(violation_count_);
  const auto ds = durations_.state();
  w.u64(ds.n);
  w.f64(ds.mean);
  w.f64(ds.m2);
  w.f64(ds.min);
  w.f64(ds.max);
}

void CaviarChecker::restore_state(BlobReader& r) {
  req_rise_ = r.time();
  in_flight_ = r.b();
  checked_ = r.u64();
  violation_count_ = r.u64();
  RunningStats::State ds{};
  ds.n = r.u64();
  ds.mean = r.f64();
  ds.m2 = r.f64();
  ds.min = r.f64();
  ds.max = r.f64();
  durations_.set_state(ds);
}

}  // namespace aetr::aer
