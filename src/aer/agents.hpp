// Behavioural agents for the two ends of an AER link.
//
// AerSender models the sensor side: it serialises queued spikes into
// 4-phase handshakes, applying realistic wire/driver delays and sensor-side
// backpressure (a spike cannot launch until the previous handshake closed —
// exactly why CAVIAR bounds handshake completion time).
//
// ImmediateAckReceiver is a test-bench consumer that acknowledges after a
// configurable delay, standing in for the synchronous front-end when a
// module is tested in isolation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "aer/channel.hpp"
#include "aer/event.hpp"
#include "sim/scheduler.hpp"
#include "util/stats.hpp"

namespace aetr::aer {

/// Sender-side timing parameters (wire + pad driver delays).
struct SenderTiming {
  Time addr_setup = Time::ns(5);    ///< ADDR stable before REQ rises
  Time req_release = Time::ns(5);   ///< REQ falls this long after ACK rises
  Time min_gap = Time::ns(10);      ///< idle time after handshake completes
};

/// Drives the sensor side of an AerChannel from a queue of events.
class AerSender {
 public:
  AerSender(sim::Scheduler& sched, AerChannel& channel,
            SenderTiming timing = {});

  /// Queue a spike for transmission at (or after) its nominal time.
  void submit(const Event& ev);

  /// Queue a whole stream (must be time-sorted).
  void submit_stream(const EventStream& events);

  /// Events whose REQ edge has been emitted, stamped with the *actual* REQ
  /// rise time — the ground truth against which AETR timestamps are scored.
  [[nodiscard]] const EventStream& sent() const { return sent_; }

  /// Spikes queued but not yet launched (sensor-side backlog).
  [[nodiscard]] std::size_t backlog() const { return queue_.size() - head_; }

  /// Statistics of handshake completion latency (REQ rise -> ACK fall).
  [[nodiscard]] const RunningStats& handshake_latency() const {
    return latency_;
  }

  /// True while the next-event launch timer is armed. This is the one
  /// standing timer the sender owns; the session counts it when deciding
  /// whether the scheduler is quiescent.
  [[nodiscard]] bool launch_pending() const { return pending_launch_.valid(); }

  /// When true, launched events are no longer appended to sent(); bounds
  /// memory for endless serve-mode streams (disables latency scoring).
  void set_keep_sent(bool keep) { keep_sent_ = keep; }

  /// Serialize queue/results/latency state. The launch timer itself is not
  /// serialized: restore_state() re-arms it via maybe_launch(), which
  /// recomputes the identical absolute launch time (max of the serialized
  /// front-event time and earliest_next_launch_, both >= the snapshot's
  /// sched.now() whenever the timer was pending).
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  void maybe_launch();
  void launch(const Event& ev);

  sim::Scheduler& sched_;
  AerChannel& channel_;
  SenderTiming timing_;
  // Queued spikes are queue_[head_..]. The launched prefix is dropped when
  // the queue drains or the prefix outweighs the backlog, so a steady
  // stream reuses the same storage.
  std::vector<Event> queue_;
  std::size_t head_{0};
  EventStream sent_;
  RunningStats latency_;
  Time req_rise_time_{Time::zero()};
  Time earliest_next_launch_{Time::zero()};
  bool busy_{false};
  bool keep_sent_{true};
  sim::EventId pending_launch_{};
};

/// Test receiver: acknowledges every request after `ack_delay`, releases ACK
/// `ack_release` after REQ falls, and records what it saw.
class ImmediateAckReceiver {
 public:
  ImmediateAckReceiver(sim::Scheduler& sched, AerChannel& channel,
                       Time ack_delay = Time::ns(10),
                       Time ack_release = Time::ns(5));

  [[nodiscard]] const EventStream& received() const { return received_; }

 private:
  sim::Scheduler& sched_;
  AerChannel& channel_;
  Time ack_delay_;
  Time ack_release_;
  EventStream received_;
};

}  // namespace aetr::aer
