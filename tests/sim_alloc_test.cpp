// Allocation-count tests for the simulation kernel's event path.
//
// The kernel's contract is that scheduling, cancelling, rescheduling and
// dispatching events performs ZERO heap allocations once the slab and the
// ordering structure are warm, for any capture within EventFn's inline
// capacity — and it holds for BOTH kernels (the 4-ary heap and the timer
// wheel), so every test below is parameterized over KernelKind.  This
// binary overrides global operator new/delete with counting pass-throughs
// and asserts exact deltas around the hot paths — if someone reintroduces a
// std::function (16-byte inline capacity on libstdc++) or an allocating
// container on the event path, these tests fail with a nonzero delta.
//
// Warming is rehearse-then-measure: the workload runs once to grow the
// slab, free list, heap, and wheel buckets it needs, then runs again and
// the second pass must allocate nothing.  Between passes the simulator is
// advanced to the next multiple of the wheel's level-3 granularity (64^3
// usec): bucket placement depends only on event times modulo that phase
// while relative offsets stay below it, so both passes of a now()-relative
// workload target exactly the same buckets.
//
// The operator overrides are binary-global, which is why these tests live
// in their own test executable instead of sim_test.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "core/scheduling_state.h"
#include "events/federated_channel.h"
#include "sim/network.h"
#include "sim/processor.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/inline_fn.h"
#include "util/time.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rtcm::sim {
namespace {

// The middleware's largest hot-path captures must stay inline: the
// federated channel ships (pointer + 80-byte event copy) per destination
// and the subtask components capture (this + 56-byte trigger payload).
static_assert(EventFn::fits_inline<std::array<std::byte, 88>>);
static_assert(CompletionFn::fits_inline<std::array<std::byte, 64>>);

/// Wheel level-3 bucket granularity: runs whose start times are congruent
/// modulo this (and whose offsets stay below it) place every event in the
/// same bucket, so a rehearsal pass warms exactly what the measured pass
/// touches.
constexpr std::int64_t kPhase = 64LL * 64 * 64;

/// Advance (without dispatching anything new) to the next kPhase multiple.
void align(Simulator& sim) {
  sim.run_until(Time((sim.now().usec() / kPhase + 1) * kPhase));
}

/// Run `workload` twice — rehearsal, then phase-aligned measured pass — and
/// return the measured pass's allocation count.
template <typename Workload>
std::uint64_t measured_allocations(Simulator& sim, Workload&& workload) {
  align(sim);
  workload();  // rehearsal: grows slab, free list, heap, buckets, due batch
  sim.run_all();
  align(sim);
  const std::uint64_t before = allocation_count();
  workload();
  sim.run_all();
  return allocation_count() - before;
}

class SimAllocTest : public ::testing::TestWithParam<KernelKind> {};

INSTANTIATE_TEST_SUITE_P(
    Kernels, SimAllocTest,
    ::testing::Values(KernelKind::kHeap, KernelKind::kWheel),
    [](const ::testing::TestParamInfo<KernelKind>& info) {
      return std::string(info.param == KernelKind::kHeap ? "heap" : "wheel");
    });

TEST_P(SimAllocTest, InlineCaptureScheduleAndDispatchAllocationFree) {
  Simulator sim(GetParam());
  std::uint64_t sink = 0;
  struct Payload {
    std::uint64_t a, b, c;
  } payload{1, 2, 3};  // 24-byte capture — typical core-layer size

  const std::uint64_t allocs = measured_allocations(sim, [&] {
    for (int i = 0; i < 2048; ++i) {
      sim.schedule_at(sim.now() + Duration(1 + i),
                      [&sink, payload] { sink += payload.a + payload.c; });
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink, 2u * 2048u * 4u);  // both passes dispatched everything
}

TEST_P(SimAllocTest, CapacityEdgeCaptureStaysInline) {
  Simulator sim(GetParam());
  std::uint64_t sink = 0;
  // Exactly EventFn::kCapacity bytes of capture.
  struct Edge {
    std::uint64_t* sink;
    std::byte pad[EventFn::kCapacity - sizeof(std::uint64_t*)];
  } edge{&sink, {}};
  static_assert(sizeof(Edge) == EventFn::kCapacity);

  const std::uint64_t allocs = measured_allocations(sim, [&] {
    for (int i = 0; i < 128; ++i) {
      sim.schedule_at(sim.now() + Duration(1 + i), [edge] { ++*edge.sink; });
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink, 2u * 128u);
}

TEST_P(SimAllocTest, OversizedCaptureFallsBackToOneHeapAllocation) {
  Simulator sim(GetParam());
  std::uint64_t sink = 0;
  struct Oversized {
    std::uint64_t* sink;
    std::byte pad[EventFn::kCapacity];  // one pointer past the capacity
  } big{&sink, {}};

  const std::uint64_t allocs = measured_allocations(sim, [&] {
    sim.schedule_at(sim.now() + Duration(1), [big] { ++*big.sink; });
  });
  EXPECT_EQ(allocs, 1u);  // the capture box; dispatch adds nothing
  EXPECT_EQ(sink, 2u);
}

TEST_P(SimAllocTest, CancelAndLazyDrainAllocationFree) {
  Simulator sim(GetParam());
  std::uint64_t sink = 0;
  std::array<EventHandle, 1024> handles;
  std::size_t cancelled = 0;

  // The cancel storm leaves 1024 dead entries behind (more than live), so
  // this also drives the compaction sweep — which must be in-place.
  const std::uint64_t allocs = measured_allocations(sim, [&] {
    for (std::size_t i = 0; i < handles.size(); ++i) {
      handles[i] = sim.schedule_at(
          sim.now() + Duration(1 + static_cast<std::int64_t>(i)),
          [&sink] { ++sink; });
    }
    for (const EventHandle h : handles) {
      if (sim.cancel(h)) ++cancelled;
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(cancelled, 2u * handles.size());
  EXPECT_EQ(sink, 0u);
}

TEST_P(SimAllocTest, RescheduleChurnAllocationFree) {
  Simulator sim(GetParam());
  std::uint64_t sink = 0;
  int rescheduled = 0;

  // Every reschedule leaves a dead entry at the event's (far-future) old
  // position until compaction reaps it, so this pins both the churn path
  // and the sweep as allocation-free at steady state.
  const std::uint64_t allocs = measured_allocations(sim, [&] {
    EventHandle h =
        sim.schedule_at(sim.now() + Duration(10000), [&sink] { ++sink; });
    for (int i = 0; i < 2048; ++i) {
      if (sim.reschedule(h, sim.now() + Duration(10000 + i))) ++rescheduled;
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(rescheduled, 2 * 2048);
  EXPECT_EQ(sink, 2u);
}

TEST_P(SimAllocTest, ProcessorCompletionPathAllocationFree) {
  Simulator sim(GetParam());
  Processor cpu(sim, ProcessorId(0));
  std::uint64_t sink = 0;

  // The same preempt/resume wave pattern both passes, so the ready deque,
  // slab, and ordering structure reach their steady-state footprints in
  // the rehearsal.
  const std::uint64_t allocs = measured_allocations(sim, [&] {
    const std::int64_t start = sim.now().usec();
    for (int w = 0; w < 64; ++w) {
      const std::int64_t base = start + w * 100;
      sim.schedule_at(Time(base), [&cpu, &sink] {
        cpu.submit({1, Priority(5), Duration(40),
                    [&sink](std::uint64_t id) { sink += id; }});
      });
      sim.schedule_at(Time(base + 10), [&cpu, &sink] {
        cpu.submit({2, Priority(1), Duration(20),
                    [&sink](std::uint64_t id) { sink += id; }});
      });
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink, 2u * 3u * 64u);  // ids 1 + 2 completed per wave, twice
}

// Event routing shares the contract: a push examines and delivers through
// preallocated tables, so pushing a Trigger and delivering it allocates
// exactly the wire copy of its placement vector (one per destination) —
// no snapshot, no routing list, no consumer-side allocation.
TEST_P(SimAllocTest, TriggerPushAllocatesOnlyThePlacementCopy) {
  Simulator sim(GetParam());
  Network network(sim, std::make_unique<ConstantLatency>(Duration(322)));
  events::FederatedEventChannel federation(sim, network);
  using events::EventType;
  using events::SubscriptionKey;
  std::uint64_t delivered = 0;
  std::uint64_t unexpected = 0;
  // Three processors hosting the stages of tasks 0..3, plus the task
  // manager's generic TaskArrive subscription.
  for (std::int32_t p = 1; p <= 3; ++p) {
    events::LocalEventChannel& channel = federation.channel(ProcessorId(p));
    channel.subscribe(SubscriptionKey(EventType::kAccept).to_this_processor(),
                      [&unexpected](const events::Event&) { ++unexpected; });
    for (std::int32_t task = 0; task < 4; ++task) {
      channel.subscribe(SubscriptionKey(EventType::kTrigger)
                            .for_task(TaskId(task))
                            .for_stage(static_cast<std::uint32_t>(p - 1))
                            .to_this_processor(),
                        [&delivered](const events::Event&) { ++delivered; });
    }
  }
  federation.channel(ProcessorId(9))
      .subscribe(EventType::kTaskArrive,
                 [&unexpected](const events::Event&) { ++unexpected; });

  // Payloads are built up front: only routing and delivery are measured.
  constexpr int kPushes = 256;
  std::vector<events::TriggerPayload> payloads;
  for (int i = 0; i < 2 * kPushes; ++i) {
    payloads.push_back(events::TriggerPayload{
        TaskId(i % 4), JobId(i), static_cast<std::size_t>(i % 3),
        {ProcessorId(1), ProcessorId(2), ProcessorId(3)}, Time(1000000),
        Time(0)});
  }
  std::size_t next = 0;
  const std::uint64_t allocs = measured_allocations(sim, [&] {
    for (int i = 0; i < kPushes; ++i) {
      federation.push(ProcessorId(0), std::move(payloads[next++]));
    }
  });
  EXPECT_EQ(allocs, static_cast<std::uint64_t>(kPushes));
  EXPECT_EQ(delivered, 2u * kPushes);
  EXPECT_EQ(unexpected, 0u);
  EXPECT_EQ(federation.stats().channel_visits, 2u * kPushes);
}

}  // namespace
}  // namespace rtcm::sim

namespace rtcm::core {
namespace {

// The admission book of record makes the same contract as the event path:
// admit/expire/reset churn at fixed resident capacity allocates nothing
// once the slabs, id tables and arena spill are warm
// (core/scheduling_state.h).  Same rehearse-then-measure discipline — the
// first churn pass grows every structure to its steady-state footprint,
// the second must not touch the heap.  This binary registers under both
// sim kernels (CMake's .heap_kernel suffix), so the contract is pinned in
// both configurations even though the book itself is kernel-independent.
TEST(AdmissionAllocTest, AdmitExpireResetChurnAllocationFree) {
  SchedulingState state;

  // Specs are prebuilt: TaskSpec construction allocates and is not part of
  // the churn contract.
  std::vector<sched::TaskSpec> specs;
  for (std::int32_t t = 0; t < 8; ++t) {
    specs.push_back(rtcm::testing::make_periodic(
        t, Duration::milliseconds(100),
        {{t % 4, 2000}, {(t + 1) % 4, 1000}}));
  }

  constexpr std::size_t kResident = 64;
  std::array<JobId, kResident> live{};
  std::array<ProcessorId, 2> placement{};
  std::int32_t next_job = 0;
  const auto admit_one = [&](std::size_t i) {
    const sched::TaskSpec& spec =
        specs[static_cast<std::size_t>(next_job) % specs.size()];
    placement = {spec.subtasks[0].primary, spec.subtasks[1].primary};
    const JobId job(next_job++);
    state.admit_job(spec, job, std::span<const ProcessorId>(placement),
                    Time(100000 + next_job));
    live[i] = job;
  };
  for (std::size_t i = 0; i < kResident; ++i) admit_one(i);

  std::size_t head = 0;
  const auto churn = [&] {
    for (int cycle = 0; cycle < 2048; ++cycle) {
      // Every 4th cycle exercises idle resetting before the expiry, so the
      // partial-removal path is part of the steady state too.
      if (cycle % 4 == 3) (void)state.reset_subjob(live[head], 0);
      state.expire_job(live[head]);
      admit_one(head);
      head = (head + 1) % kResident;
    }
  };
  churn();  // rehearsal: slabs, id tables and spill reach steady state

  const std::uint64_t before = allocation_count();
  churn();
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(state.active_jobs(), kResident);
}

// Reservations (AC per Task) ride the same slabs; reserve/release churn at
// fixed capacity must be allocation-free as well.
TEST(AdmissionAllocTest, ReserveReleaseChurnAllocationFree) {
  SchedulingState state;
  std::vector<sched::TaskSpec> specs;
  for (std::int32_t t = 0; t < 16; ++t) {
    specs.push_back(rtcm::testing::make_periodic(
        t, Duration::milliseconds(100),
        {{t % 4, 2000}, {(t + 2) % 4, 1000}}));
  }

  std::array<ProcessorId, 2> placement{};
  const auto churn = [&] {
    for (int round = 0; round < 64; ++round) {
      for (const sched::TaskSpec& spec : specs) {
        placement = {spec.subtasks[0].primary, spec.subtasks[1].primary};
        state.reserve_task(spec, std::span<const ProcessorId>(placement));
      }
      for (const sched::TaskSpec& spec : specs) {
        (void)state.release_reservation(spec);
      }
    }
  };
  churn();

  const std::uint64_t before = allocation_count();
  // release_reservation returns the placement by value, which is the one
  // unavoidable allocation per call; everything else must be silent.
  constexpr std::uint64_t kReturnedPlacements = 64ull * 16ull;
  churn();
  EXPECT_LE(allocation_count() - before, kReturnedPlacements);
  EXPECT_EQ(state.reservation_count(), 0u);
}

}  // namespace
}  // namespace rtcm::core
