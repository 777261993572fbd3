// The asynchronous AER link: REQ/ACK/ADDR wires with 4-phase handshake
// semantics and built-in protocol checking.
//
// Phase order (AER / CAVIAR):
//   1. sender drives ADDR, then asserts REQ
//   2. receiver latches ADDR, asserts ACK
//   3. sender deasserts REQ
//   4. receiver deasserts ACK -> channel idle again
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aer/event.hpp"
#include "fault/injector.hpp"
#include "sim/scheduler.hpp"
#include "util/time.hpp"

namespace aetr {
class BlobWriter;
class BlobReader;
}  // namespace aetr

namespace aetr::aer {

/// One observable protocol violation on the channel.
struct ProtocolViolation {
  Time time{Time::zero()};
  std::string description;
};

/// Wire-level AER channel. The sender and receiver agents manipulate the
/// wires through the assert_/deassert_ methods; observers subscribe to edge
/// notifications. All transitions are checked against the 4-phase protocol
/// and violations are recorded (throwing is opt-in via set_strict).
class AerChannel {
 public:
  using LevelFn = std::function<void(bool level, Time t)>;

  explicit AerChannel(sim::Scheduler& sched) : sched_{sched} {}

  // --- sender side -------------------------------------------------------
  /// Drive the address bus. Legal only while REQ is low (AER requires ADDR
  /// stable before REQ asserts and until ACK).
  void drive_addr(std::uint16_t addr);
  void assert_req();
  void deassert_req();

  // --- receiver side ------------------------------------------------------
  void assert_ack();
  void deassert_ack();

  // --- observation ---------------------------------------------------------
  /// Observable REQ level (a runt-pulse fault can dip it below the driven
  /// state for a few tens of nanoseconds).
  [[nodiscard]] bool req() const { return req_ && !runt_dip_; }
  [[nodiscard]] bool ack() const { return ack_; }
  [[nodiscard]] std::uint16_t addr() const { return addr_; }
  [[nodiscard]] Time last_req_rise() const { return last_req_rise_; }

  void on_req_change(LevelFn fn) { req_observers_.push_back(std::move(fn)); }
  void on_ack_change(LevelFn fn) { ack_observers_.push_back(std::move(fn)); }

  /// Notified (in non-strict mode) whenever a protocol violation is
  /// recorded — the hook the interface's error interrupt hangs off.
  using ViolationFn = std::function<void(const ProtocolViolation&)>;
  void on_violation(ViolationFn fn) {
    violation_observers_.push_back(std::move(fn));
  }

  /// Completed 4-phase handshakes so far.
  [[nodiscard]] std::uint64_t handshakes() const { return handshakes_; }
  /// Count one handshake completed off the wire: the analytic engine
  /// (core/fast_path) drives no edges and calls this at each ACK fall.
  void count_handshake() { ++handshakes_; }
  [[nodiscard]] const std::vector<ProtocolViolation>& violations() const {
    return violations_;
  }

  /// In strict mode protocol violations throw std::logic_error instead of
  /// being recorded (tests use this; production sims record and continue).
  void set_strict(bool strict) { strict_ = strict; }

  /// Wire-level fault lotteries (drop REQ / stuck ACK / runt pulses). Null
  /// (the default) means the channel behaves exactly as without the hook.
  void attach_faults(fault::FaultInjector* faults) { faults_ = faults; }

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

  /// True while a scheduled runt-pulse dip/recovery event is outstanding;
  /// the session may not snapshot until both have fired.
  [[nodiscard]] bool runt_in_flight() const {
    return runt_pending_ || runt_dip_;
  }

  /// Serialize wire/counter state (quiescent: no runt events in flight).
  /// Observers are not serialized — they are re-registered when the
  /// component graph is reconstructed, in the same order.
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  void violation(const std::string& what);

  sim::Scheduler& sched_;
  fault::FaultInjector* faults_{nullptr};
  bool runt_pending_{false};
  bool runt_dip_{false};
  bool req_{false};
  bool ack_{false};
  std::uint16_t addr_{0};
  Time last_req_rise_{Time::zero()};
  std::uint64_t handshakes_{0};
  bool strict_{false};
  std::vector<LevelFn> req_observers_;
  std::vector<LevelFn> ack_observers_;
  std::vector<ViolationFn> violation_observers_;
  std::vector<ProtocolViolation> violations_;
};

}  // namespace aetr::aer
