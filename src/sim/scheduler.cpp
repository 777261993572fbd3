#include "sim/scheduler.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace aetr::sim {

std::uint32_t Scheduler::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  if (meta_.size() == meta_.capacity()) {
    // Grow in large steps: reallocating the cell array relocates every
    // callback, so keep reallocations rare. The heap never holds more
    // entries than the pool has slots, so reserving it here too keeps the
    // steady state allocation-free.
    const std::size_t cap = meta_.empty() ? 1024 : meta_.capacity() * 2;
    meta_.reserve(cap);
    cells_.reserve(cap);
    heap_.reserve(cap);
  }
  meta_.emplace_back();
  cells_.emplace_back();
  return static_cast<std::uint32_t>(meta_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t idx) {
  SlotMeta& m = meta_[idx];
  ++m.gen;  // stale EventIds (ran / cancelled / recycled) now never match
  m.pos = kNotQueued;
  free_.push_back(idx);
}

void Scheduler::place(std::size_t pos, const HeapEntry& e) {
  heap_[pos] = e;
  meta_[e.slot].pos = static_cast<std::uint32_t>(pos);
}

// Both sifts move a hole instead of swapping: each level costs one entry
// copy and one position update.
void Scheduler::sift_up(std::size_t pos, HeapEntry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!e.before(heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Scheduler::sift_down(std::size_t pos, HeapEntry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

// Remove the entry at `pos`: the last entry fills the hole and sifts
// whichever way restores the heap order.
void Scheduler::erase_at(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && last.before(heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

std::uint32_t Scheduler::schedule_slot(Time t) {
  if (t < now_) {
    throw std::logic_error("Scheduler: event scheduled in the past (" +
                           t.to_string() + " < " + now_.to_string() + ")");
  }
  const std::uint32_t idx = acquire_slot();
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapEntry{t, next_seq_++, idx});
  return idx;
}

EventId Scheduler::schedule_at(Time t, Callback cb) {
  const std::uint32_t idx = schedule_slot(t);
  cells_[idx] = std::move(cb);
  return EventId{(std::uint64_t{meta_[idx].gen} << 32) | (idx + 1)};
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const auto biased = static_cast<std::uint32_t>(id.id & 0xFFFFFFFFu);
  if (biased == 0 || biased > meta_.size()) return false;
  const std::uint32_t idx = biased - 1;
  const SlotMeta& m = meta_[idx];
  // A matching generation means the event is still queued: dispatch and
  // cancel both release the slot, which bumps it.
  if (m.gen != static_cast<std::uint32_t>(id.id >> 32)) return false;
  assert(m.pos != kNotQueued);
  erase_at(m.pos);
  cells_[idx].reset();
  release_slot(idx);
  ++cancelled_;
  return true;
}

// Pop and invoke the earliest event if its timestamp is <= horizon. This is
// the single dispatch path shared by run(), run_until() and run_next().
bool Scheduler::step(Time horizon) {
  if (heap_.empty() || heap_.front().t > horizon) return false;
  const HeapEntry top = heap_.front();
  assert(top.t >= now_);
  erase_at(0);
  now_ = top.t;
  // The slot is free again before the callback runs, so a callback may
  // reuse it for the next event it schedules.
  Callback cb = std::move(cells_[top.slot]);
  release_slot(top.slot);
  ++processed_;
  cb();
  return true;
}

void Scheduler::run(std::uint64_t limit) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    if (!step(Time::max())) return;
  }
}

void Scheduler::run_until(Time t) {
  while (step(t)) {
  }
  if (t > now_) now_ = t;
}

bool Scheduler::run_next() { return step(Time::max()); }

void Scheduler::fast_forward_to(Time t) {
  if (t < now_) {
    throw std::logic_error("Scheduler: fast_forward_to into the past (" +
                           t.to_string() + " < " + now_.to_string() + ")");
  }
  if (next_event_time() < t) {
    throw std::logic_error(
        "Scheduler: fast_forward_to(" + t.to_string() +
        ") would jump over a pending event at " +
        next_event_time().to_string());
  }
  now_ = t;
}

void Scheduler::restore_clock_state(const ClockState& s) {
  if (!heap_.empty()) {
    throw std::logic_error(
        "Scheduler: restore_clock_state with pending events");
  }
  if (s.now < now_) {
    throw std::logic_error("Scheduler: restore_clock_state into the past");
  }
  now_ = s.now;
  next_seq_ = s.next_seq;
  processed_ = s.processed;
  cancelled_ = s.cancelled;
}

}  // namespace aetr::sim
