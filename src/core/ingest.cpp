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
  Time last = session_.last_event_time().value_or(
      events.empty() ? Time::zero() : events.front().time);
  std::size_t valid = 0;
  for (; valid < events.size() && events[valid].time >= last &&
         events[valid].time <= aer::kLatestEventTime;
       ++valid) {
    last = events[valid].time;
  }
  const bool snapshotting = interval_ > Time::zero();
  for (std::size_t i = 0; i < valid;) {
    const std::size_t room = session_.room();
    if (room == 0) {
      // Full of events at or before this one: advancing to it drains all.
      session_.advance_to(events[i].time);
      continue;
    }
    std::size_t end = std::min(valid, i + room);
    for (std::size_t j = i; snapshotting && j < end; ++j) {
      if (events[j].time >= next_snapshot_) end = j + 1;
    }
    session_.feed_all(events.subspan(i, end - i));
    i = end;
    const Time t = events[end - 1].time;
    if (snapshotting && t >= next_snapshot_) {
      session_.advance_to(next_snapshot_);
      next_snapshot_ = next_snapshot_instant(t, interval_);
      if (!on_snapshot_()) return i;
    }
  }
  return valid;
}

}  // namespace aetr::core
