#include "core/ingest.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace aetr::core {

std::optional<Time> snapshot_interval(double sec) {
  if (sec == 0.0) return Time::zero();
  const double ps = sec * 1e12;  // below 2^63 it stays in range rounded
  if (!(ps >= 0.5 && ps < 0x1p63)) return std::nullopt;
  return Time::sec(sec);
}

Time next_snapshot_instant(Time t, Time interval) {
  const Time::Rep k = t / interval;
  return k < Time::max() / interval ? interval * (k + 1) : Time::max();
}

IngestPump::IngestPump(Session& session, double interval_sec,
                       SnapshotFn on_snapshot)
    : session_{session}, on_snapshot_{std::move(on_snapshot)} {
  const std::optional<Time> interval = snapshot_interval(interval_sec);
  if (!interval) {
    throw std::invalid_argument(
        "IngestPump: snapshot interval must be 0 (off) or 1e-12 to 9.22e6 s");
  }
  interval_ = *interval;
  next_snapshot_ = interval_ > Time::zero()
                       ? next_snapshot_instant(session_.position(), interval_)
                       : Time::max();
}

std::size_t IngestPump::push(std::span<const aer::Event> events) {
  std::size_t i = 0;
  while (i < events.size()) {
    const std::size_t room = session_.room();
    if (room == 0) {
      // Full of events at or before this one: advancing to it drains all,
      // when the session would take it at all.
      const Time t = events[i].time;
      if (t < session_.last_event_time().value_or(t) ||
          t > aer::kLatestEventTime) {
        break;
      }
      session_.advance_to(t);
      continue;
    }
    const std::size_t n =
        session_.feed_run(events.subspan(i), room, next_snapshot_);
    i += n;
    if (n > 0 && events[i - 1].time >= next_snapshot_) {
      session_.advance_to(next_snapshot_);
      next_snapshot_ = next_snapshot_instant(events[i - 1].time, interval_);
      if (!on_snapshot_()) break;
    } else if (n < room) {
      break;  // the end, or an event the session refuses
    }
  }
  return i;
}

}  // namespace aetr::core
