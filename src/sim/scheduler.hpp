// Discrete-event simulation kernel.
//
// The whole interface is modelled as components that schedule callbacks on a
// shared picosecond timeline. Blocks with deterministic idle behaviour (the
// division FSM between spikes, the paused oscillator) schedule only their
// *state-change* instants, so simulated cost scales with activity, not with
// wall-clock frequency — the same energy-proportionality trick the paper
// plays in hardware, applied to simulator throughput.
//
// The event store is one indexed binary heap of (time, seq, slot) entries
// (docs/SIMULATOR.md#the-event-kernel): schedule, cancel and dispatch are
// O(log n) in the pending count, and (time, schedule order) is a total
// order, so same-time events dispatch FIFO. Each slot records its heap
// position, so cancel erases its entry at once.
//
// Callbacks live in a generation-tagged slot pool of InplaceFunction cells,
// so the common capture (component pointer + small ints) never touches the
// allocator and a stale EventId can never cancel a recycled slot.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/inplace_function.hpp"
#include "util/time.hpp"

namespace aetr::telemetry {
class TelemetrySession;
}  // namespace aetr::telemetry

namespace aetr::sim {

/// Handle to a scheduled event, usable for cancellation.
///
/// Encodes a slot-pool index (low 32 bits, biased by 1 so 0 stays "invalid")
/// and the slot's generation at scheduling time (high 32 bits). Cancelling
/// finds the slot in O(1) and erases its heap entry in O(log n); a handle
/// whose generation no longer matches the slot (the event ran, was
/// cancelled, or the slot was recycled) is simply stale and cancel()
/// returns false.
struct EventId {
  std::uint64_t id{0};
  [[nodiscard]] bool valid() const { return id != 0; }
};

/// Central event queue. Single-threaded; callbacks may schedule/cancel
/// further events freely (including at the current time).
class Scheduler {
 public:
  /// 56 inline bytes covers every capture in the library (the largest is the
  /// SPI bit-clocking closure at exactly 56 bytes, asserted in spi.cpp) and
  /// makes the whole cell — buffer plus vtable pointer — exactly one 64-byte
  /// cache line. Bigger captures still work via the wrapper's heap fallback.
  using Callback = util::InplaceFunction<void(), 56>;

  /// Current simulated time. Monotonically non-decreasing.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (must be >= now()).
  EventId schedule_at(Time t, Callback cb);

  /// In-place overload: a small nothrow-movable callable is constructed
  /// directly in its pooled cell, skipping the temporary wrapper and the
  /// vtable relocate of the Callback path entirely.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, Callback> && std::is_invocable_r_v<void, D&>>>
  EventId schedule_at(Time t, F&& f) {
    if constexpr (Callback::stores_inline<F>() &&
                  std::is_nothrow_constructible_v<D, F&&>) {
      const std::uint32_t idx = schedule_slot(t);
      cells_[idx].emplace(std::forward<F>(f));
      return EventId{(std::uint64_t{meta_[idx].gen} << 32) | (idx + 1)};
    } else {
      // Potentially-throwing construction: build the wrapper first so a
      // throw cannot leave a linked slot with an empty callback.
      return schedule_at(t, Callback(std::forward<F>(f)));
    }
  }

  /// Schedule `cb` `delta` after the current time.
  EventId schedule_after(Time delta, Callback cb) {
    return schedule_at(now_ + delta, std::move(cb));
  }

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, Callback> && std::is_invocable_r_v<void, D&>>>
  EventId schedule_after(Time delta, F&& f) {
    return schedule_at(now_ + delta, std::forward<F>(f));
  }

  /// Cancel a pending event. Returns false if it already ran or was
  /// cancelled. Safe to call with an invalid id.
  bool cancel(EventId id);

  /// Run events until the queue is empty or `limit` events processed.
  void run(std::uint64_t limit = UINT64_MAX);

  /// Run all events with timestamp <= t, then advance now() to exactly t.
  void run_until(Time t);

  /// Process the single earliest event; returns false if queue empty.
  bool run_next();

  // --- gap query / fast-forward -------------------------------------------
  /// Timestamp of the earliest pending event, or Time::max() when the queue
  /// is empty. This is the gap-query half of the fast-forward contract: a
  /// caller that knows its own next action time can test
  /// `next_event_time() >= t` and skip the idle stretch.
  [[nodiscard]] Time next_event_time() const {
    return heap_.empty() ? Time::max() : heap_.front().t;
  }

  /// Advance now() straight to `t` across a verified gap. Throws
  /// std::logic_error if an event is pending strictly before `t` — the
  /// caller's gap query was stale and jumping would reorder dispatches.
  /// Events scheduled exactly at `t` stay pending (they dispatch after any
  /// state the caller applies at `t`, matching the schedule-then-run order
  /// of a callback that runs at `t` itself).
  void fast_forward_to(Time t);

  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// Event-kernel self-metrics, derived from counters the kernel keeps
  /// anyway, so they are free to keep always-on. Every event lives in the
  /// one heap: `heap_dispatches` counts every dispatch (== processed()) and
  /// `cascaded` is always 0. Both stay so existing Stats readers keep
  /// compiling.
  struct Stats {
    std::uint64_t scheduled{0};        ///< schedule_at/after calls accepted
    std::uint64_t heap_dispatches{0};  ///< every dispatch
    std::uint64_t cascaded{0};         ///< always 0: nothing cascades
    std::uint64_t cancelled{0};        ///< successful cancel() calls
  };
  [[nodiscard]] Stats stats() const {
    return {processed_ + heap_.size() + cancelled_, processed_, 0, cancelled_};
  }

  /// Telemetry session for this run, or nullptr (the default). The
  /// scheduler only carries the pointer — components reach their telemetry
  /// through the scheduler reference they already hold. Attach before
  /// constructing the components that should pick it up.
  void set_telemetry(telemetry::TelemetrySession* session) {
    telemetry_ = session;
  }
  [[nodiscard]] telemetry::TelemetrySession* telemetry() const {
    return telemetry_;
  }

  // --- snapshot/restore ----------------------------------------------------
  /// Clock-and-counter state for session snapshots. Callbacks cannot be
  /// serialized, so a snapshot is only taken at a quiescent point where the
  /// Session knows (and can re-arm) every pending event; this struct carries
  /// the rest.
  struct ClockState {
    Time now;
    std::uint64_t next_seq;
    std::uint64_t processed;
    std::uint64_t cancelled;
  };
  [[nodiscard]] ClockState clock_state() const {
    return {now_, next_seq_, processed_, cancelled_};
  }
  /// Restore the clock/counter state. Only valid on a scheduler with no
  /// pending events (the restorer re-arms standing timers afterwards, which
  /// then receive seq numbers >= next_seq exactly as the saved run's
  /// re-armed timers did); throws std::logic_error otherwise.
  void restore_clock_state(const ClockState& s);

 private:
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  /// Heap entries carry the (time, seq) key by value so sifting never
  /// touches the pool; the callback stays in its slot's cell.
  struct HeapEntry {
    Time t;
    std::uint64_t seq;  // FIFO order among same-time events
    std::uint32_t slot;
    [[nodiscard]] bool before(const HeapEntry& o) const {
      return t < o.t || (t == o.t && seq < o.seq);
    }
  };

  struct SlotMeta {
    std::uint32_t gen{1};           // bumped on every release; 0 never matches
    std::uint32_t pos{kNotQueued};  // index of this slot's heap entry
  };

  std::uint32_t acquire_slot();
  std::uint32_t schedule_slot(Time t);  // validate + acquire + enqueue
  void release_slot(std::uint32_t idx);
  void place(std::size_t pos, const HeapEntry& e);
  void sift_up(std::size_t pos, HeapEntry e);
  void sift_down(std::size_t pos, HeapEntry e);
  void erase_at(std::size_t pos);
  bool step(Time horizon);

  std::vector<SlotMeta> meta_;
  std::vector<Callback> cells_;  // cells_[i] is slot i's callback
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;  // binary min-heap on (t, seq)
  Time now_{Time::zero()};
  std::uint64_t next_seq_{0};
  std::uint64_t processed_{0};
  std::uint64_t cancelled_{0};
  telemetry::TelemetrySession* telemetry_{nullptr};
};

}  // namespace aetr::sim
