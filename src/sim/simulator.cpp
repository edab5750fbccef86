#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rtcm::sim {

namespace {
/// Heap arity.  4 children per node halves the tree depth of a binary heap
/// (fewer cache lines per sift) at the cost of three extra comparisons per
/// level — the classic d-ary trade that favours d=4 for 24-byte entries.
constexpr std::size_t kArity = 4;
/// Below this many stored entries, compaction is never worth the sweep.
constexpr std::size_t kCompactMinEntries = 256;
}  // namespace

std::uint32_t Simulator::acquire_slot(EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  // Stale handles and lazy queue entries both die on this bump.
  ++s.gen;
  free_slots_.push_back(slot);
  --live_;
}

// --- 4-ary heap --------------------------------------------------------------

void Simulator::heap_push(const Entry& entry) {
  // Hole-based sift-up: bubble a hole to the entry's position and store
  // once, instead of swapping the entry level by level.  Events scheduled
  // in nondecreasing time order (arrival streams) place with one compare.
  std::size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

// `moved` must not alias an element of heap_ (elements are overwritten
// while it is still compared against) — callers pass a local copy.
void Simulator::heap_sift_down(std::size_t i, const Entry& moved) {
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= heap_.size()) break;
    const std::size_t last = std::min(first + kArity, heap_.size());
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moved)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moved;
}

void Simulator::heap_pop() {
  assert(!heap_.empty());
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0, moved);
}

void Simulator::heapify() {
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
    const Entry moved = heap_[i];
    heap_sift_down(i, moved);
  }
}

void Simulator::settle_front() {
  while (!heap_.empty() && entry_dead(heap_.front())) heap_pop();
}

void Simulator::dispatch_front() {
  // settle_front() has already run; the front is live.
  const Entry top = heap_.front();
  heap_pop();
  now_ = Time(top.time_usec);
  // Move the callback out and release the slot before invoking: the
  // callback may schedule, cancel, or reschedule other events (mutating the
  // slab underneath us), and cancelling the currently-dispatching event
  // must report false.
  EventFn fn = std::move(slots_[top.slot].fn);
  release_slot(top.slot);
  ++executed_;
  fn();
}

bool Simulator::arrival_next() {
  settle_front();
  if (head_ == timeline_.size()) return false;
  return heap_.empty() || before(timeline_[head_], heap_.front());
}

void Simulator::dispatch_arrival() {
  // Copied out and popped before the handler runs: the handler may inject
  // arrivals, which can move the timeline's storage.
  const TimelineEntry top = timeline_[head_];
  if (++head_ == timeline_.size()) {
    timeline_.clear();
    head_ = 0;
  }
  now_ = Time(top.time_usec);
  ++executed_;
  on_arrival_(top.target, top.payload);
}

std::size_t Simulator::make_timeline_room(std::size_t count) {
  assert((count == 0 || on_arrival_ != nullptr) &&
         "inject with no arrival handler set");
  if (timeline_.size() + count > timeline_.capacity() && head_ > 0) {
    timeline_.erase(timeline_.begin(),
                    timeline_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  if (timeline_.size() + count > timeline_.capacity()) {
    timeline_.reserve(
        std::max(timeline_.size() + count, 2 * timeline_.capacity()));
  }
  return timeline_.size();
}

void Simulator::order_timeline(std::size_t first) {
  if (first == timeline_.size()) return;
  const auto by_key = [](const TimelineEntry& a, const TimelineEntry& b) {
    return before(a, b);
  };
  const auto begin = timeline_.begin();
  const auto mid = begin + static_cast<std::ptrdiff_t>(first);
  // Seqs rise in injection order, so sorting by (time, seq) is a stable
  // sort by time: ties keep the order they were injected in.
  if (!std::is_sorted(mid, timeline_.end(), by_key)) {
    std::sort(mid, timeline_.end(), by_key);
  }
  // The new entries' seqs exceed every older one's, so each goes after
  // every older entry of the same instant: only the older entries later
  // than the first new one take part in the merge.
  const auto from =
      std::upper_bound(begin + static_cast<std::ptrdiff_t>(head_), mid, *mid,
                       by_key);
  std::inplace_merge(from, mid, timeline_.end(), by_key);
}

void Simulator::maybe_compact() {
  // Every live event owns exactly one live heap entry, so the dead count is
  // size - live.  Rebuilding when dead exceeds live keeps queue memory
  // O(live) and costs O(1) amortized: a sweep of n entries discards > n/2
  // dead ones, each of which paid for itself when it was created.
  if (heap_.size() <= kCompactMinEntries || heap_.size() - live_ <= live_) {
    return;
  }
  std::erase_if(heap_, [this](const Entry& e) { return entry_dead(e); });
  heapify();
}

// --- public API --------------------------------------------------------------

EventHandle Simulator::schedule_at(Time at, EventFn fn) {
  assert(at >= now_ && "cannot schedule in the past");
  assert(fn && "null event callback");
  const std::uint32_t slot = acquire_slot(std::move(fn));
  const std::uint32_t gen = slots_[slot].gen;
  heap_push({at.usec(), next_seq_++, slot, gen});
  ++live_;
  return EventHandle(slot, gen);
}

EventHandle Simulator::schedule_after(Duration delay, EventFn fn) {
  assert(!delay.is_negative());
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return false;
  if (slots_[handle.slot_].gen != handle.gen_) return false;
  assert(slots_[handle.slot_].fn && "live generation implies armed slot");
  release_slot(handle.slot_);
  maybe_compact();
  return true;
}

bool Simulator::reschedule(EventHandle& handle, Time at) {
  assert(at >= now_ && "cannot reschedule into the past");
  if (!handle.valid() || handle.slot_ >= slots_.size()) return false;
  Slot& s = slots_[handle.slot_];
  if (s.gen != handle.gen_) return false;
  assert(s.fn && "live generation implies armed slot");
  ++s.gen;  // the currently-queued entry is now dead
  heap_push({at.usec(), next_seq_++, handle.slot_, s.gen});
  handle.gen_ = s.gen;
  maybe_compact();
  return true;
}

bool Simulator::step() {
  if (arrival_next()) {
    dispatch_arrival();
  } else if (!heap_.empty()) {
    dispatch_front();
  } else {
    return false;
  }
  return true;
}

void Simulator::run_until(Time deadline) {
  // Settle once per dispatch: dispatch_front() assumes a settled front, so
  // the dead-entry scan runs exactly once per event.
  for (;;) {
    if (arrival_next()) {
      if (Time(timeline_[head_].time_usec) > deadline) break;
      dispatch_arrival();
    } else {
      if (heap_.empty() || Time(heap_.front().time_usec) > deadline) break;
      dispatch_front();
    }
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_all() {
  while (step()) {
  }
}

}  // namespace rtcm::sim
