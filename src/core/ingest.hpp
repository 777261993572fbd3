// The one ingest loop: `aetr-serve run` and every gateway net::Connection
// feed their session through an IngestPump. push() feeds the events'
// non-decreasing prefix (continuing from Session::last_event_time()) with
// Session::feed_run() in runs cut at the buffer's free room and after the
// first event at or past the next snapshot instant; each run is checked,
// cut and appended in one pass over its events. A full buffer gets
// advance_to(next event's time); a run reaching an instant gets
// advance_to(instant), then the snapshot callback: the per-event loop's
// exact calls (tests/test_net_ingest.cpp). Instants are the multiples of
// the interval from time zero, so a restored session checkpoints where the
// uninterrupted run did.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>

#include "aer/event.hpp"
#include "core/session.hpp"

namespace aetr::core {

/// `sec` rounded to the picosecond grid (as Time::sec rounds): zero for 0
/// (periodic snapshots off); nullopt when it rounds below 1 ps or past
/// Time's int64 range, or is negative or NaN.
[[nodiscard]] std::optional<Time> snapshot_interval(double sec);

/// The smallest multiple of `interval` (> 0) above `t` (>= 0), saturating
/// at Time::max().
[[nodiscard]] Time next_snapshot_instant(Time t, Time interval);

class IngestPump {
 public:
  /// Called at each snapshot instant; false stops the current push().
  using SnapshotFn = std::function<bool()>;

  /// Construct after any restore(): the first instant follows position().
  /// Throws std::invalid_argument when snapshot_interval() refuses
  /// `interval_sec`.
  IngestPump(Session& session, double interval_sec, SnapshotFn on_snapshot);

  /// Returns how many events were ingested: fewer than given when one goes
  /// back in time or past aer::kLatestEventTime, or the snapshot callback
  /// returns false.
  std::size_t push(std::span<const aer::Event> events);

 private:
  Session& session_;
  Time interval_;
  Time next_snapshot_;
  SnapshotFn on_snapshot_;
};

}  // namespace aetr::core
