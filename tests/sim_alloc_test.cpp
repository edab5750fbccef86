// Allocation-count tests for the simulation kernel's event path.
//
// The kernel's contract is that scheduling, cancelling, rescheduling and
// dispatching events performs ZERO heap allocations once the slab and the
// event heap are warm, for any capture within EventFn's inline capacity.
// This binary overrides global operator new/delete with counting pass-throughs
// and asserts exact deltas around the hot paths — if someone reintroduces a
// std::function (16-byte inline capacity on libstdc++) or an allocating
// container on the event path, these tests fail with a nonzero delta.
//
// Warming is rehearse-then-measure: the workload runs once to grow the
// slab, free list and heap it needs, then runs again and the second pass
// must allocate nothing.
//
// The operator overrides are binary-global, which is why these tests live
// in their own test executable instead of sim_test.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "core/scheduling_state.h"
#include "events/federated_channel.h"
#include "sim/network.h"
#include "sim/processor.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/inline_fn.h"
#include "util/time.h"
#include "workload/arrival.h"
#include "workload/generator.h"

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
// The nothrow forms too (std::stable_sort's temporary buffer uses them and
// frees through plain operator delete), so every pair stays matched.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rtcm::sim {
namespace {

// The middleware's largest hot-path captures must stay inline: the
// federated channel ships (pointer + 80-byte event copy) per destination
// and the subtask components capture (this + 56-byte trigger payload).
static_assert(EventFn::fits_inline<std::array<std::byte, 88>>);
static_assert(CompletionFn::fits_inline<std::array<std::byte, 64>>);

/// Run `workload` twice — rehearsal, then measured pass — and return the
/// measured pass's allocation count.
template <typename Workload>
std::uint64_t measured_allocations(Simulator& sim, Workload&& workload) {
  workload();  // rehearsal: grows slab, free list and heap
  sim.run_all();
  const std::uint64_t before = allocation_count();
  workload();
  sim.run_all();
  return allocation_count() - before;
}

TEST(SimAllocTest, InlineCaptureScheduleAndDispatchAllocationFree) {
  Simulator sim;
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

// Injected arrivals take no slot, callback or heap entry.  A trace of
// 30,000 (burst-overload's queue peaks near that many pending events) costs
// one block, the arrival timeline's, and dispatching it allocates nothing.
TEST(SimAllocTest, InjectedArrivalsTakeOneBlockAndDispatchFree) {
  Simulator sim;
  sim.set_arrival_handler([](void* target, std::uint64_t payload) {
    *static_cast<std::uint64_t*>(target) += payload;
  });
  std::uint64_t sink = 0;
  constexpr std::size_t kArrivals = 30000;
  std::uint64_t before = allocation_count();
  sim.inject_arrivals(kArrivals, [&sink](std::size_t i) {
    return Simulator::Arrival{Time(static_cast<std::int64_t>(i / 3)), &sink,
                              1};
  });
  EXPECT_LE(allocation_count() - before, 1u);
  EXPECT_EQ(sim.pending(), kArrivals);
  EXPECT_EQ(sim.queue_entries(), 0u);

  before = allocation_count();
  sim.run_all();
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(sink, kArrivals);
  EXPECT_EQ(sim.executed(), kArrivals);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimAllocTest, CapacityEdgeCaptureStaysInline) {
  Simulator sim;
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

TEST(SimAllocTest, OversizedCaptureFallsBackToOneHeapAllocation) {
  Simulator sim;
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

TEST(SimAllocTest, CancelAndLazyDrainAllocationFree) {
  Simulator sim;
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

TEST(SimAllocTest, RescheduleChurnAllocationFree) {
  Simulator sim;
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

TEST(SimAllocTest, ProcessorCompletionPathAllocationFree) {
  Simulator sim;
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
// preallocated tables, and a Trigger's placement is carried inline, so
// pushing a Trigger and delivering it allocates nothing — no wire copy, no
// snapshot, no routing list, no consumer-side allocation.
TEST(SimAllocTest, TriggerPushAllocatesNothing) {
  Simulator sim;
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
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(delivered, 2u * kPushes);
  EXPECT_EQ(unexpected, 0u);
  EXPECT_EQ(federation.stats().channel_visits, 2u * kPushes);
}

// A placement longer than events::Placement::kInline spills to one heap
// block.  Explicit task sets put no bound on stage count, so a spilled
// placement must keep the value semantics of an inline one: copying it
// costs exactly its block, moving it costs nothing.
TEST(SimAllocTest, NineStagePlacementSpillsToOneBlock) {
  std::vector<ProcessorId> ids;
  for (std::int32_t p = 0; p < 9; ++p) ids.push_back(ProcessorId(10 + p));
  const events::Placement placement(ids);
  ASSERT_EQ(placement.size(), 9u);
  EXPECT_TRUE(placement.spilled());

  std::uint64_t before = allocation_count();
  events::Placement copy = placement;
  EXPECT_EQ(allocation_count() - before, 1u);
  EXPECT_EQ(copy, placement);
  EXPECT_TRUE(std::ranges::equal(copy, ids));

  before = allocation_count();
  events::Placement moved = std::move(copy);
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(moved, placement);
  moved[8] = ProcessorId(3);
  EXPECT_NE(moved, placement);
  EXPECT_EQ(placement[8], ProcessorId(18));  // each copy owns its block

  // addressees() reads a spilled placement like an inline one.
  events::TriggerPayload trigger{TaskId(1), JobId(2), 7,        placement,
                                 Time(0),   Time(0)};
  EXPECT_EQ(events::addressees(trigger).first, ProcessorId(17));
  trigger.stage = 9;  // past the last stage: no destination
  EXPECT_FALSE(events::addressees(trigger).first.valid());
  const events::AcceptPayload accept{TaskId(1), JobId(2), ProcessorId(4),
                                     placement, Time(0)};
  const events::Addressees to = events::addressees(accept);
  EXPECT_EQ(to.first, ProcessorId(4));
  EXPECT_EQ(to.second, ProcessorId(10));

  // Every shipped shape (at most five stages) stays inline.
  const events::Placement five{ProcessorId(0), ProcessorId(1), ProcessorId(2),
                               ProcessorId(3), ProcessorId(4)};
  EXPECT_FALSE(five.spilled());
  before = allocation_count();
  const events::Placement five_copy = five;
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(five_copy, five);
}

}  // namespace
}  // namespace rtcm::sim

namespace rtcm::core {
namespace {

// The admission book of record makes the same contract as the event path:
// admit/expire/reset churn at fixed resident capacity allocates nothing
// once the slabs and id tables are warm (core/scheduling_state.h).  Same
// rehearse-then-measure discipline — the first churn pass grows every
// structure to its steady-state footprint, the second must not touch the
// heap.
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
  // release_reservation returns the placement by value, inline in an
  // events::Placement, so that return is silent too.
  churn();
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(state.reservation_count(), 0u);
}


// Every shipped shape has at most five stages, and a five-stage row's
// placement and units sit inline in the row, so churning five-stage jobs
// and reservations allocates nothing once warm.
TEST(AdmissionAllocTest, FiveStageRowChurnStaysInline) {
  SchedulingState state;
  const sched::TaskSpec spec = rtcm::testing::make_periodic(
      1, Duration::milliseconds(100),
      {{0, 1000}, {1, 1000}, {2, 1000}, {3, 1000}, {4, 1000}});
  const std::array<ProcessorId, 5> placement = {
      ProcessorId(0), ProcessorId(1), ProcessorId(2), ProcessorId(3),
      ProcessorId(4)};
  const std::span<const ProcessorId> stages(placement);

  // Three jobs stay resident, so each expiry moves another row into the
  // freed one.
  constexpr std::int32_t kResident = 3;
  std::int32_t next_job = 0;
  const auto churn = [&] {
    for (int i = 0; i < 512; ++i) {
      const JobId job(next_job++);
      state.admit_job(spec, job, stages, Time(100000 + next_job));
      if (job.value() >= kResident) {
        state.expire_job(JobId(job.value() - kResident));
      }
      state.reserve_task(spec, stages);
      (void)state.release_reservation(spec);
    }
  };
  churn();  // rehearsal

  const std::uint64_t before = allocation_count();
  churn();
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(state.active_jobs(), static_cast<std::size_t>(kResident));
}

// The whole per-job path makes the same contract: once warm, a job's
// arrival (TaskArrive), admission (Equation 1 with an LB placement),
// Accept or Reject, release, every stage hand-off (Trigger), completion
// and deadline expiry allocate nothing.  The one remainder is the idle
// report: its list of completed subjobs travels in the IdleReset event,
// inline up to events::CompletedSubjobs::kInline subjobs, and a longer
// list allocates one block.
//
// Rehearse-then-measure over a whole run: a Sec-7.1 random workload's
// arrival trace is replayed pass after pass, where a pass is the trace's
// horizon plus a drain longer than any deadline.  The rehearsal passes
// grow every table to the trace's needs; the measured pass replays the
// same jobs and must allocate exactly one block per long idle report.  A
// traced twin replays the same passes and counts those reports from the
// AC's idle-reset records.
//
// The deferrable-server cases hold DS analysis to the same contract: the
// delay-bound test, the per-job backlog records, the stage-release and
// deadline-backstop timers and the server's own queue reuse their storage
// once warm.
struct JobPathCase {
  std::string combo;
  bool deferrable_server = false;

  [[nodiscard]] std::string name() const {
    return deferrable_server ? combo + "_DS" : combo;
  }
};

void PrintTo(const JobPathCase& c, std::ostream* os) { *os << c.name(); }

class JobPathAllocTest : public ::testing::TestWithParam<JobPathCase> {};

/// One runtime replaying the case's arrival trace pass after pass.
class JobPathReplay {
 public:
  explicit JobPathReplay(const JobPathCase& c) {
    Rng rng(5);
    sched::TaskSet tasks =
        workload::generate_workload(workload::random_workload_shape(), rng);
    SystemConfig config;
    config.strategies = StrategyCombination::parse(c.combo).value();
    if (c.deferrable_server) {
      config.analysis = AperiodicAnalysis::kDeferrableServer;
    }
    runtime_ = std::make_unique<SystemRuntime>(config, std::move(tasks));
    assembled_ = runtime_->assemble().is_ok();
    Rng arrival_rng = rng.fork(1);
    trace_ = workload::generate_arrivals(
        runtime_->tasks(), Time::epoch() + kHorizon, arrival_rng);
  }

  [[nodiscard]] bool assembled() const { return assembled_; }
  [[nodiscard]] SystemRuntime& runtime() { return *runtime_; }
  [[nodiscard]] std::size_t trace_size() const { return trace_.size(); }

  /// Replay the trace from k * kPass; returns the allocations the pass
  /// made.  Its arrivals are injected just before it starts, outside the
  /// measurement, so they take event slots the previous passes freed.
  std::uint64_t run_pass() {
    const Time start = Time::epoch() + Duration(kPass.usec() * passes_++);
    std::vector<Arrival> shifted = trace_;
    for (Arrival& a : shifted) a.time = a.time + (start - Time::epoch());
    RTCM_EXPECT_OK(runtime_->inject_arrivals(shifted));
    shifted = {};
    const std::uint64_t before = allocation_count();
    runtime_->run_until(start + kPass - Duration(1));
    return allocation_count() - before;
  }

  [[nodiscard]] std::uint64_t idle_reports() {
    std::uint64_t reports = 0;
    for (const ProcessorId p : runtime_->app_processors()) {
      reports += runtime_->idle_resetter(p)->reports_pushed();
    }
    return reports;
  }

 private:
  static constexpr Duration kHorizon = Duration::seconds(100);
  // Deadlines are at most 10 s, so a 15 s drain empties the pass.
  static constexpr Duration kPass = kHorizon + Duration::seconds(15);

  std::unique_ptr<SystemRuntime> runtime_;
  bool assembled_ = false;
  std::vector<Arrival> trace_;
  std::int64_t passes_ = 0;
};

TEST_P(JobPathAllocTest, WarmRunAllocatesOnlyIdleReports) {
  JobPathReplay replay(GetParam());
  ASSERT_TRUE(replay.assembled());
  SystemRuntime& runtime = replay.runtime();

  // Rehearsals: every table grows to the trace's needs.  Under AC per Task
  // with LB per Job the standing reservations keep moving from pass to
  // pass, so high-water marks settle over a few passes, not one.
  constexpr int kRehearsals = 3;
  for (int k = 0; k < kRehearsals; ++k) (void)replay.run_pass();
  const TaskMetrics warm = runtime.metrics().total();
  const std::uint64_t reports_before = replay.idle_reports();
  const std::uint64_t allocations = replay.run_pass();
  const std::uint64_t reports = replay.idle_reports() - reports_before;
  const TaskMetrics& total = runtime.metrics().total();

  // The measured pass ran every job of the trace again, end to end.
  ASSERT_EQ(warm.arrivals, kRehearsals * replay.trace_size());
  EXPECT_EQ(total.arrivals - warm.arrivals, replay.trace_size());
  EXPECT_GT(total.releases - warm.releases, 0u);
  EXPECT_EQ(total.completions, total.releases);
  if (GetParam().deferrable_server) {
    // The measured pass served aperiodic subjobs through the servers.
    std::uint64_t served = 0;
    for (const ProcessorId p : runtime.app_processors()) {
      served += runtime.deferrable_server(p)->stats().jobs_served;
    }
    EXPECT_GT(served, 0u);
    EXPECT_EQ(runtime.admission_control()->ds_admission()->active_jobs(), 0u);
  }

  // The twin traces its measured pass: one idle-reset record per report,
  // naming how many subjobs the report carried.
  JobPathReplay twin(GetParam());
  ASSERT_TRUE(twin.assembled());
  for (int k = 0; k < kRehearsals; ++k) (void)twin.run_pass();
  twin.runtime().trace().enable();
  (void)twin.run_pass();
  std::uint64_t traced_reports = 0;
  std::uint64_t long_reports = 0;
  for (const sim::TraceRecord& r : twin.runtime().trace().records()) {
    if (r.kind != sim::TraceKind::kIdleReset) continue;
    std::size_t applied = 0;
    std::size_t reported = 0;
    ASSERT_EQ(std::sscanf(r.detail.c_str(), "%zu applied of %zu reported",
                          &applied, &reported),
              2)
        << r.detail;
    ++traced_reports;
    if (reported > events::CompletedSubjobs::kInline) ++long_reports;
  }
  ASSERT_EQ(traced_reports, reports);
  EXPECT_EQ(allocations, long_reports)
      << "the job path allocated beyond one block per long idle report ("
      << reports << " reports, " << long_reports << " long)";
}

INSTANTIATE_TEST_SUITE_P(
    AllValid, JobPathAllocTest,
    ::testing::Values(JobPathCase{"T_N_N"}, JobPathCase{"T_N_T"},
                      JobPathCase{"T_N_J"}, JobPathCase{"T_T_N"},
                      JobPathCase{"T_T_T"}, JobPathCase{"T_T_J"},
                      JobPathCase{"J_N_N"}, JobPathCase{"J_N_T"},
                      JobPathCase{"J_N_J"}, JobPathCase{"J_T_N"},
                      JobPathCase{"J_T_T"}, JobPathCase{"J_T_J"},
                      JobPathCase{"J_J_N"}, JobPathCase{"J_J_T"},
                      JobPathCase{"J_J_J"}),
    [](const ::testing::TestParamInfo<JobPathCase>& info) {
      return info.param.name();
    });

INSTANTIATE_TEST_SUITE_P(
    DeferrableServer, JobPathAllocTest,
    ::testing::Values(JobPathCase{"T_N_N", true}, JobPathCase{"J_J_J", true}),
    [](const ::testing::TestParamInfo<JobPathCase>& info) {
      return info.param.name();
    });

// --- Set-up: assembling a Figure 5 cell -------------------------------------
//
// assemble() builds the cell's typed deployment plan and launches it: one
// allocation per component, container map node and subscription, and no
// string ids, attribute maps or string-keyed registries between the plan
// and the components.  The count is pinned for one fixed cell; it was 635
// when plans carried string ids and string-keyed attribute maps.
TEST(SetupAllocTest, AssembleOfOneFigure5CellAllocatesAFixedCount) {
  Rng rng(1);
  sched::TaskSet tasks =
      workload::generate_workload(workload::random_workload_shape(), rng);
  SystemConfig config;
  config.strategies = StrategyCombination::parse("J_J_T").value();
  SystemRuntime runtime(config, std::move(tasks));
  const std::uint64_t before = allocation_count();
  ASSERT_TRUE(runtime.assemble().is_ok());
  EXPECT_EQ(allocation_count() - before, 226u);
}

}  // namespace
}  // namespace rtcm::core
