// Discrete-event simulation engine.
//
// The engine owns virtual time.  Work is expressed as closures scheduled at
// absolute instants; the engine runs them in (time, insertion order) so a
// given program is fully deterministic.
//
// The queue is built for throughput — every paper figure and sweep cell is
// produced through it, so event dispatch is the hottest path in the
// codebase:
//   - pending events are ordered by a 4-ary min-heap of plain (time, seq)
//     keys with hole-based sifts: one O(log n) sift per schedule, no tree
//     nodes,
//   - callbacks live in a slab of generation-counted slots recycled through
//     a free list, stored as small-buffer `EventFn` delegates: scheduling
//     performs zero heap allocations for captures within the inline
//     capacity,
//   - cancellation is O(1) and lazy: the slot is released (and its
//     generation bumped) immediately, and the dead heap entry is skipped
//     when it surfaces,
//   - `reschedule` moves a pending event to a new instant while keeping its
//     slot and callback — the preemptive processor model re-times its
//     completion event this way instead of cancel + re-allocate,
//   - cancel/reschedule storms cannot grow queue memory without bound:
//     when dead entries outnumber live ones the heap is rebuilt in place
//     from its live entries, keeping stored entries O(live) at O(1)
//     amortized cost.
//
// Dispatch order is exactly the (time, seq) contract: seq is consumed once
// per schedule/reschedule, so a program's trace is a function of its inputs.
// tests/sim_kernel_test.cpp replays randomized churn against a
// std::multimap reference kept in the test and requires the identical
// dispatch sequence and now() trajectory.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/inline_fn.h"
#include "util/time.h"

namespace rtcm::sim {

/// Event callback.  The inline capacity covers every capture the middleware
/// schedules on the hot path (the largest is the federated channel's
/// per-destination event copy, 88 bytes); larger captures fall back to one
/// heap allocation.
using EventFn = InlineFunction<void(), 88>;

/// Identifies one scheduled event for cancellation or rescheduling.  A
/// handle is a (slot, generation) pair: the slot's generation moves on when
/// the event fires, is cancelled, or is rescheduled, so stale handles —
/// including handles to a slot since recycled for another event — are
/// detected in O(1).  Default-constructed handles are inert.
class EventHandle {
 public:
  constexpr EventHandle() = default;
  [[nodiscard]] constexpr bool valid() const { return slot_ != kNone; }
  constexpr void reset() {
    slot_ = kNone;
    gen_ = 0;
  }

 private:
  friend class Simulator;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  constexpr EventHandle(std::uint32_t slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kNone;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now).
  EventHandle schedule_at(Time at, EventFn fn);

  /// Schedule `fn` after a relative delay (>= 0).
  EventHandle schedule_after(Duration delay, EventFn fn);

  /// Cancel a pending event.  Returns false if it already ran, was already
  /// cancelled, or the handle is inert or stale.  O(1): the callback is
  /// destroyed and the slot recycled now; the queue entry dies lazily.
  bool cancel(EventHandle handle);

  /// Move a still-pending event to `at` (>= now), keeping its callback and
  /// slot.  The event is ordered as if freshly scheduled (it consumes a new
  /// sequence number) and `handle` is revalidated in place.  Returns false
  /// — scheduling nothing — when the handle is dead, so callers fall back
  /// to schedule_at.
  bool reschedule(EventHandle& handle, Time at);

  /// Make room for `events` more pending events, so scheduling them grows
  /// the slab and the heap at most once, straight to the power-of-two
  /// capacity their doubling would reach, instead of relocating every
  /// pending callback at each doubling on the way.
  void reserve(std::size_t events) {
    if (events == 0) return;
    const std::size_t fresh =
        events > free_slots_.size() ? events - free_slots_.size() : 0;
    slots_.reserve(std::bit_ceil(slots_.size() + fresh));
    heap_.reserve(std::bit_ceil(heap_.size() + events));
  }

  /// Run a single event; returns false if the queue is empty.
  bool step();

  /// Run events until the queue is empty or `deadline` is passed.  Events
  /// scheduled exactly at `deadline` still run.  Time is left at the later
  /// of the last event time and `deadline` (when the horizon was reached).
  void run_until(Time deadline);

  /// Run until the event queue drains completely.
  void run_all();

  /// Number of pending (scheduled and not cancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Entries currently stored in the heap (live + lazily dead).  Exposed
  /// so tests can pin the compaction bound: cancel or reschedule storms
  /// must keep this O(pending()), not O(total churn).
  [[nodiscard]] std::size_t queue_entries() const { return heap_.size(); }

 private:
  /// One queue entry: the ordering key plus the slot the callback lives in.
  /// `gen` snapshots the slot generation at (re)schedule time; a mismatch
  /// when the entry surfaces means the event was cancelled or rescheduled.
  struct Entry {
    std::int64_t time_usec;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
  };

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return a.time_usec != b.time_usec ? a.time_usec < b.time_usec
                                      : a.seq < b.seq;
  }
  [[nodiscard]] bool entry_dead(const Entry& e) const {
    return slots_[e.slot].gen != e.gen;
  }

  // 4-ary min-heap primitives on heap_.
  void heap_push(const Entry& entry);
  void heap_sift_down(std::size_t i, const Entry& moved);
  void heap_pop();
  /// Rebuild the heap property bottom-up after bulk edits; O(n).
  void heapify();

  /// Drop dead entries off the heap top so front() is a live event.
  void settle_front();
  /// Pop and run the (settled, live) front event.
  void dispatch_front();

  std::uint32_t acquire_slot(EventFn fn);
  void release_slot(std::uint32_t slot);
  /// Rebuild heap_ from live entries when dead ones dominate, so
  /// cancel/reschedule storms keep queue memory O(live).
  void maybe_compact();

  Time now_ = Time::epoch();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;                // slab of callbacks
  std::vector<std::uint32_t> free_slots_;  // LIFO recycler (deterministic)
  std::vector<Entry> heap_;                // 4-ary min-heap on (time, seq)
};

}  // namespace rtcm::sim
