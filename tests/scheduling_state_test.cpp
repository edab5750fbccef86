// Direct unit tests of the admission controller's book of record.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/scheduling_state.h"
#include "test_helpers.h"

namespace rtcm::core {
namespace {

using rtcm::testing::make_aperiodic;
using rtcm::testing::make_periodic;

using Units = sched::UtilizationLedger::Units;

sched::TaskSpec two_stage_task(std::int32_t id = 0) {
  // 100 ms deadline, stages of 20 ms (u=0.2) on P0 and 10 ms (u=0.1) on P1.
  return make_periodic(id, Duration::milliseconds(100),
                       {{0, 20000}, {1, 10000}});
}

/// Ledger units of `u`: totals are compared exactly, in units.
Units units(double u) { return sched::UtilizationLedger::units(u); }

TEST(SchedulingStateTest, AdmitJobAddsStageContributions) {
  SchedulingState state;
  const auto task = two_stage_task();
  state.admit_job(task, JobId(1), {ProcessorId(0), ProcessorId(1)},
                  Time(100000));
  EXPECT_TRUE(state.has_job(JobId(1)));
  EXPECT_EQ(state.active_jobs(), 1u);
  EXPECT_EQ(state.ledger().total_units(ProcessorId(0)), units(0.2));
  EXPECT_EQ(state.ledger().total_units(ProcessorId(1)), units(0.1));
  ASSERT_TRUE(state.job(JobId(1)).has_value());
  EXPECT_EQ(state.job(JobId(1))->absolute_deadline, Time(100000));
  // The row keeps the units each stage added.
  EXPECT_TRUE(std::ranges::equal(state.job(JobId(1))->units,
                                 std::vector<Units>{units(0.2), units(0.1)}));
}

TEST(SchedulingStateTest, AdmitJobHonoursAlternatePlacement) {
  SchedulingState state;
  const auto task = two_stage_task();
  // Both stages re-allocated to P5/P6.
  state.admit_job(task, JobId(1), {ProcessorId(5), ProcessorId(6)},
                  Time(100000));
  EXPECT_EQ(state.ledger().total_units(ProcessorId(5)), units(0.2));
  EXPECT_EQ(state.ledger().total_units(ProcessorId(6)), units(0.1));
  EXPECT_EQ(state.ledger().total(ProcessorId(0)), 0.0);
}

TEST(SchedulingStateTest, ExpireJobRemovesEverything) {
  SchedulingState state;
  state.admit_job(two_stage_task(), JobId(1),
                  {ProcessorId(0), ProcessorId(1)}, Time(100000));
  state.expire_job(JobId(1));
  EXPECT_FALSE(state.has_job(JobId(1)));
  EXPECT_EQ(state.ledger().total(ProcessorId(0)), 0.0);
  EXPECT_EQ(state.ledger().total(ProcessorId(1)), 0.0);
  // Idempotent.
  state.expire_job(JobId(1));
  EXPECT_EQ(state.active_jobs(), 0u);
}

TEST(SchedulingStateTest, ResetSubjobRemovesOnlyThatStage) {
  SchedulingState state;
  state.admit_job(two_stage_task(), JobId(1),
                  {ProcessorId(0), ProcessorId(1)}, Time(100000));
  EXPECT_TRUE(state.reset_subjob(JobId(1), 0));
  EXPECT_EQ(state.ledger().total(ProcessorId(0)), 0.0);
  EXPECT_EQ(state.job(JobId(1))->units[0], 0u);
  EXPECT_EQ(state.ledger().total_units(ProcessorId(1)), units(0.1));
  // Second reset of the same stage is a no-op.
  EXPECT_FALSE(state.reset_subjob(JobId(1), 0));
  // The job is still tracked until expiry.
  EXPECT_TRUE(state.has_job(JobId(1)));
  // Expiry removes the remaining stage only.
  state.expire_job(JobId(1));
  EXPECT_EQ(state.ledger().total(ProcessorId(1)), 0.0);
}

TEST(SchedulingStateTest, ResetUnknownJobOrStage) {
  SchedulingState state;
  EXPECT_FALSE(state.reset_subjob(JobId(9), 0));
  state.admit_job(two_stage_task(), JobId(1),
                  {ProcessorId(0), ProcessorId(1)}, Time(100000));
  EXPECT_FALSE(state.reset_subjob(JobId(1), 7));  // out-of-range stage
}

TEST(SchedulingStateTest, ReservationsAreImmuneToJobOperations) {
  SchedulingState state;
  const auto task = two_stage_task();
  state.reserve_task(task, {ProcessorId(0), ProcessorId(1)});
  EXPECT_TRUE(state.is_reserved(TaskId(0)));
  EXPECT_EQ(state.reservation_count(), 1u);
  // Job-level operations must not touch the reservation.
  EXPECT_FALSE(state.reset_subjob(JobId(0), 0));
  state.expire_job(JobId(0));
  EXPECT_EQ(state.ledger().total_units(ProcessorId(0)), units(0.2));
  ASSERT_TRUE(state.reservation(TaskId(0)).has_value());
  EXPECT_EQ(state.reservation(TaskId(0))->placement[1], ProcessorId(1));
}

TEST(SchedulingStateTest, ReleaseReservationReturnsPlacementAndFrees) {
  SchedulingState state;
  const auto task = two_stage_task();
  state.reserve_task(task, {ProcessorId(3), ProcessorId(4)});
  const auto placement = state.release_reservation(task);
  EXPECT_EQ(placement,
            (std::vector<ProcessorId>{ProcessorId(3), ProcessorId(4)}));
  EXPECT_FALSE(state.is_reserved(TaskId(0)));
  EXPECT_EQ(state.ledger().total(ProcessorId(3)), 0.0);
  EXPECT_EQ(state.ledger().total(ProcessorId(4)), 0.0);
}

TEST(SchedulingStateTest, FootprintsCoverJobsAndReservations) {
  SchedulingState state;
  state.admit_job(two_stage_task(0), JobId(1),
                  {ProcessorId(0), ProcessorId(1)}, Time(100000));
  state.reserve_task(two_stage_task(1), {ProcessorId(2), ProcessorId(3)});
  const auto footprints = state.current_footprints();
  ASSERT_EQ(footprints.size(), 2u);
  EXPECT_EQ(footprints[0].task, TaskId(0));
  EXPECT_EQ(footprints[0].processors,
            (std::vector<ProcessorId>{ProcessorId(0), ProcessorId(1)}));
  EXPECT_EQ(footprints[1].task, TaskId(1));
}

TEST(SchedulingStateTest, BackgroundLoadHasNoFootprint) {
  SchedulingState state;
  state.add_background(ProcessorId(0), 0.4);
  EXPECT_EQ(state.ledger().total_units(ProcessorId(0)), units(0.4));
  EXPECT_TRUE(state.current_footprints().empty());
}

TEST(SchedulingStateTest, ManyConcurrentJobsOfOneTask) {
  // Aperiodic bursts put several jobs of the same task in flight at once;
  // each must carry independent contributions.
  SchedulingState state;
  const auto task = make_aperiodic(0, Duration::milliseconds(100),
                                   {{0, 10000}});
  for (int k = 0; k < 5; ++k) {
    state.admit_job(task, JobId(k), {ProcessorId(0)},
                    Time(100000 + k));
  }
  EXPECT_EQ(state.active_jobs(), 5u);
  EXPECT_EQ(state.ledger().total_units(ProcessorId(0)), 5 * units(0.1));
  state.expire_job(JobId(2));
  EXPECT_EQ(state.ledger().total_units(ProcessorId(0)), 4 * units(0.1));
  EXPECT_EQ(state.current_footprints().size(), 4u);
}

TEST(SchedulingStateTest, ResetsAreDecreaseOnlyUnderRandomInterleaving) {
  // Unit-level mirror of the system invariant: across arbitrary
  // admit/reset/expire interleavings over a generated workload, admissions
  // are the only operation that may grow the ledger, and draining every job
  // returns it to exactly zero.
  const sched::TaskSet tasks = rtcm::testing::make_imbalanced_workload(7);
  SchedulingState state;
  Rng rng(7);
  struct LiveJob {
    JobId job;
    const sched::TaskSpec* spec;
  };
  std::vector<LiveJob> live;
  std::int32_t next_job = 0;

  for (int step = 0; step < 600; ++step) {
    const double before = state.ledger().total_all();
    const std::size_t op = rng.index(3);
    if (op == 0 || live.empty()) {
      const sched::TaskSpec& spec = tasks.tasks()[rng.index(tasks.size())];
      std::vector<ProcessorId> placement;
      for (const sched::SubtaskSpec& st : spec.subtasks) {
        placement.push_back(st.primary);
      }
      const JobId job(next_job++);
      state.admit_job(spec, job, placement, Time(step * 1000 + 100000));
      live.push_back({job, &spec});
      EXPECT_GE(state.ledger().total_all(), before);
    } else if (op == 1) {
      const LiveJob& pick = live[rng.index(live.size())];
      (void)state.reset_subjob(pick.job,
                               rng.index(pick.spec->subtasks.size()));
      EXPECT_LE(state.ledger().total_all(), before);
    } else {
      const std::size_t i = rng.index(live.size());
      state.expire_job(live[i].job);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      EXPECT_LE(state.ledger().total_all(), before);
    }
  }
  for (const LiveJob& j : live) state.expire_job(j.job);
  EXPECT_EQ(state.active_jobs(), 0u);
  EXPECT_EQ(state.ledger().total_all(), 0.0);
}

}  // namespace
}  // namespace rtcm::core
