#include <gtest/gtest.h>

#include <memory>

#include "core/runtime.h"
#include "test_helpers.h"

namespace rtcm::core {
namespace {

using rtcm::testing::make_aperiodic;
using rtcm::testing::make_periodic;
using sched::TaskSet;

std::unique_ptr<SystemRuntime> make_runtime(
    const std::string& combo, TaskSet tasks,
    Duration latency = Duration::zero()) {
  SystemConfig config;
  config.strategies = StrategyCombination::parse(combo).value();
  config.comm_latency = latency;
  config.enable_trace = true;
  auto runtime = std::make_unique<SystemRuntime>(config, std::move(tasks));
  const Status s = runtime->assemble();
  EXPECT_TRUE(s.is_ok()) << s.message();
  return runtime;
}

TaskSet one_periodic_two_stage() {
  // 100 ms deadline/period; stages on P0 and P1 at 10 ms each (u = 0.1).
  TaskSet set;
  EXPECT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 10000}, {1, 10000}}))
                  .is_ok());
  return set;
}

// --- Assembly ----------------------------------------------------------------

TEST(RuntimeAssemblyTest, BuildsExpectedTopology) {
  auto rt = make_runtime("T_T_T", one_periodic_two_stage());
  EXPECT_EQ(rt->app_processors().size(), 2u);
  EXPECT_EQ(rt->task_manager(), ProcessorId(2));  // max app proc + 1
  EXPECT_NE(rt->admission_control(), nullptr);
  EXPECT_NE(rt->load_balancer(), nullptr);
  EXPECT_NE(rt->task_effector(ProcessorId(0)), nullptr);
  EXPECT_NE(rt->idle_resetter(ProcessorId(1)), nullptr);
  // Manager container: AC + LB.
  EXPECT_EQ(rt->container(rt->task_manager()).size(), 2u);
  // P0: TE + IR + stage-0 F/I subtask; P1: TE + IR + stage-1 Last subtask.
  EXPECT_EQ(rt->container(ProcessorId(0)).size(), 3u);
  EXPECT_EQ(rt->container(ProcessorId(1)).size(), 3u);
  EXPECT_NE(testing::find_named<FirstIntermediateSubtask>(
                rt->container(ProcessorId(0)), "T0_S0@P0"),
            nullptr);
  EXPECT_NE(testing::find_named<LastSubtask>(rt->container(ProcessorId(1)),
                                             "T0_S1@P1"),
            nullptr);
}

TEST(RuntimeAssemblyTest, ReplicasGetDuplicateComponents) {
  TaskSet set;
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 10000, {1}}}))
                  .is_ok());
  auto rt = make_runtime("T_T_T", std::move(set));
  EXPECT_NE(testing::find_named<LastSubtask>(rt->container(ProcessorId(0)),
                                             "T0_S0@P0"),
            nullptr);
  EXPECT_NE(testing::find_named<LastSubtask>(rt->container(ProcessorId(1)),
                                             "T0_S0@P1"),
            nullptr);
}

TEST(RuntimeAssemblyTest, RejectsInvalidCombination) {
  SystemConfig config;
  config.strategies =
      StrategyCombination{AcStrategy::kPerTask, IrStrategy::kPerJob,
                          LbStrategy::kNone};
  SystemRuntime runtime(config, one_periodic_two_stage());
  const Status s = runtime.assemble();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("T_J_N"), std::string::npos);
}

TEST(RuntimeAssemblyTest, RejectsEmptyTaskSet) {
  SystemConfig config;
  SystemRuntime runtime(config, TaskSet{});
  EXPECT_FALSE(runtime.assemble().is_ok());
}

TEST(RuntimeAssemblyTest, RejectsManagerCollision) {
  SystemConfig config;
  config.task_manager = ProcessorId(0);  // hosts a subtask
  SystemRuntime runtime(config, one_periodic_two_stage());
  EXPECT_FALSE(runtime.assemble().is_ok());
}

TEST(RuntimeAssemblyTest, DoubleAssembleRejected) {
  auto rt = make_runtime("T_T_T", one_periodic_two_stage());
  EXPECT_FALSE(rt->assemble().is_ok());
}

TEST(RuntimeAssemblyTest, EdmsPrioritiesExposed) {
  TaskSet set;
  ASSERT_TRUE(set.add(make_periodic(0, Duration::seconds(10), {{0, 1000}}))
                  .is_ok());
  ASSERT_TRUE(
      set.add(make_periodic(1, Duration::seconds(1), {{0, 1000}})).is_ok());
  auto rt = make_runtime("T_T_T", std::move(set));
  const auto priority = [&rt](const char* instance) {
    return testing::config_of<ccm::SubtaskConfig>(rt->plan(), instance)
        .priority;
  };
  EXPECT_EQ(priority("T1_S0@P0"), Priority(0));
  EXPECT_EQ(priority("T0_S0@P0"), Priority(1));
}

// --- End-to-end single job ---------------------------------------------------

TEST(PipelineTest, SingleJobFlowsThroughChain) {
  auto rt = make_runtime("J_N_N", one_periodic_two_stage());
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  rt->run_until(Time(Duration::milliseconds(300).usec()));

  const auto& total = rt->metrics().total();
  EXPECT_EQ(total.arrivals, 1u);
  EXPECT_EQ(total.releases, 1u);
  EXPECT_EQ(total.completions, 1u);
  EXPECT_EQ(total.deadline_misses, 0u);
  // Two stages of 10 ms back-to-back: response time ~20 ms.
  EXPECT_NEAR(total.response_ms.mean(), 20.0, 0.5);
  EXPECT_EQ(rt->trace().count(sim::TraceKind::kJobComplete), 1u);
  EXPECT_EQ(rt->trace().count(sim::TraceKind::kDeadlineMiss), 0u);
}

TEST(PipelineTest, ResponseIncludesAdmissionRoundTripLatency) {
  auto rt = make_runtime("J_N_N", one_periodic_two_stage(),
                         Duration::microseconds(322));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  rt->run_until(Time(Duration::milliseconds(300).usec()));
  // arrival -> AC (322us) -> accept (322us) -> stage0 10ms -> trigger to P1
  // (322us) -> stage1 10ms: ~20.97 ms.
  EXPECT_NEAR(rt->metrics().total().response_ms.mean(), 20.97, 0.2);
}

TEST(PipelineTest, TaskEffectorHoldsUntilAccept) {
  auto rt = make_runtime("J_N_N", one_periodic_two_stage(),
                         Duration::milliseconds(10));
  TaskEffector* te = rt->task_effector(ProcessorId(0));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  // Run to just after the arrival but before the Accept round trip ends.
  rt->run_until(Time(Duration::milliseconds(5).usec()));
  EXPECT_EQ(te->held_count(), 1u);
  rt->run_until(Time(Duration::milliseconds(25).usec()));
  EXPECT_EQ(te->held_count(), 0u);
  EXPECT_EQ(rt->metrics().total().releases, 1u);
}

// --- AC per Task semantics ---------------------------------------------------

TEST(AcPerTaskTest, ReservesOnceAndBypassesLaterTests) {
  auto rt = make_runtime("T_N_N", one_periodic_two_stage());
  for (int k = 0; k < 5; ++k) {
    RTCM_EXPECT_OK(rt->inject_arrival(
        TaskId(0), Time(Duration::milliseconds(100 * k).usec())));
  }
  rt->run_until(Time(Duration::seconds(1).usec()));

  const auto& counters = rt->admission_control()->counters();
  EXPECT_EQ(counters.admission_tests, 1u);  // only the first arrival
  EXPECT_EQ(rt->admission_control()->state().reservation_count(), 1u);
  EXPECT_EQ(rt->metrics().total().releases, 5u);
  // Jobs after the first released immediately by the TE.
  EXPECT_EQ(rt->task_effector(ProcessorId(0))->immediate_releases(), 4u);
  // Reservation persists: synthetic utilization stays nonzero forever.
  EXPECT_GT(rt->admission_control()->state().ledger().total(ProcessorId(0)),
            0.0);
}

TEST(AcPerTaskTest, RejectedTaskNeverRuns) {
  TaskSet set;
  // Infeasible alone: two stages at utilization 0.5 -> lhs = 1.5.
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 50000}, {1, 50000}}))
                  .is_ok());
  auto rt = make_runtime("T_N_N", std::move(set));
  for (int k = 0; k < 3; ++k) {
    RTCM_EXPECT_OK(rt->inject_arrival(
        TaskId(0), Time(Duration::milliseconds(100 * k).usec())));
  }
  rt->run_until(Time(Duration::seconds(1).usec()));
  EXPECT_EQ(rt->metrics().total().releases, 0u);
  EXPECT_EQ(rt->metrics().total().rejections, 3u);
  EXPECT_DOUBLE_EQ(rt->metrics().accepted_utilization_ratio(), 0.0);
  // Only the first arrival ran a test; later ones hit the rejected cache.
  EXPECT_EQ(rt->admission_control()->counters().admission_tests, 1u);
}

TEST(AcPerTaskTest, AperiodicJobsStillTestedPerArrival) {
  TaskSet set;
  ASSERT_TRUE(set.add(make_aperiodic(0, Duration::milliseconds(100),
                                     {{0, 10000}}))
                  .is_ok());
  auto rt = make_runtime("T_N_N", std::move(set));
  for (int k = 0; k < 4; ++k) {
    RTCM_EXPECT_OK(rt->inject_arrival(
        TaskId(0), Time(Duration::milliseconds(200 * k).usec())));
  }
  rt->run_until(Time(Duration::seconds(2).usec()));
  EXPECT_EQ(rt->admission_control()->counters().admission_tests, 4u);
  EXPECT_EQ(rt->admission_control()->state().reservation_count(), 0u);
  EXPECT_EQ(rt->metrics().total().releases, 4u);
}

// --- AC per Job semantics ----------------------------------------------------

TEST(AcPerJobTest, EveryJobTested) {
  auto rt = make_runtime("J_N_N", one_periodic_two_stage());
  for (int k = 0; k < 5; ++k) {
    RTCM_EXPECT_OK(rt->inject_arrival(
        TaskId(0), Time(Duration::milliseconds(100 * k).usec())));
  }
  rt->run_until(Time(Duration::seconds(1).usec()));
  EXPECT_EQ(rt->admission_control()->counters().admission_tests, 5u);
  EXPECT_EQ(rt->metrics().total().releases, 5u);
}

TEST(AcPerJobTest, ContributionExpiresAtDeadline) {
  auto rt = make_runtime("J_N_N", one_periodic_two_stage());
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  rt->run_until(Time(Duration::milliseconds(50).usec()));
  // Mid-window: contribution live even though the job completed (~20 ms).
  EXPECT_EQ(rt->metrics().total().completions, 1u);
  EXPECT_GT(rt->admission_control()->state().ledger().total(ProcessorId(0)),
            0.0);
  rt->run_until(Time(Duration::milliseconds(101).usec()));
  EXPECT_EQ(
      rt->admission_control()->state().ledger().total(ProcessorId(0)), 0.0);
  EXPECT_EQ(rt->admission_control()->state().active_jobs(), 0u);
}

TEST(AcPerJobTest, OverloadSkipsJobsInsteadOfKillingTask) {
  TaskSet set;
  // Two tasks that each need 0.4 of P0: only one can hold the processor
  // per window.  Under per-job AC, a rejected job is skipped but the task
  // keeps being tested — whichever task reaches the AC first in a window
  // wins it.  Alternate the injection order so both tasks win windows.
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 40000}}))
                  .is_ok());
  ASSERT_TRUE(set.add(make_periodic(1, Duration::milliseconds(100),
                                    {{0, 40000}}))
                  .is_ok());
  auto rt = make_runtime("J_N_N", std::move(set));
  for (int k = 0; k < 10; ++k) {
    const Time t(Duration::milliseconds(100 * k).usec());
    if (k % 2 == 0) {
      RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), t));
      RTCM_EXPECT_OK(rt->inject_arrival(TaskId(1), t));
    } else {
      RTCM_EXPECT_OK(rt->inject_arrival(TaskId(1), t));
      RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), t));
    }
  }
  rt->run_until(Time(Duration::seconds(2).usec()));
  const auto& per_task = rt->metrics().per_task();
  // Both tasks progress (jobs skipped, tasks never blacklisted)...
  EXPECT_EQ(per_task.at(TaskId(0)).releases, 5u);
  EXPECT_EQ(per_task.at(TaskId(1)).releases, 5u);
  EXPECT_EQ(per_task.at(TaskId(0)).rejections, 5u);
  EXPECT_EQ(per_task.at(TaskId(1)).rejections, 5u);
  // ...and every single job went through the admission test.
  EXPECT_EQ(rt->admission_control()->counters().admission_tests, 20u);
}

// --- Idle resetting ----------------------------------------------------------

TEST(IdleResetTest, PerJobResetsPeriodicContributions) {
  auto rt = make_runtime("J_J_N", one_periodic_two_stage());
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  // Job completes at ~20 ms; processors go idle; IR reports; contributions
  // removed well before the 100 ms deadline.
  rt->run_until(Time(Duration::milliseconds(50).usec()));
  EXPECT_EQ(
      rt->admission_control()->state().ledger().total(ProcessorId(0)), 0.0);
  EXPECT_EQ(
      rt->admission_control()->state().ledger().total(ProcessorId(1)), 0.0);
  EXPECT_GT(rt->admission_control()->counters().subjobs_reset, 0u);
  EXPECT_GT(rt->metrics().idle_resets(), 0u);
}

TEST(IdleResetTest, PerTaskOnlyResetsAperiodic) {
  TaskSet set;
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 10000}}))
                  .is_ok());
  ASSERT_TRUE(set.add(make_aperiodic(1, Duration::milliseconds(100),
                                     {{0, 10000}}))
                  .is_ok());
  auto rt = make_runtime("J_T_N", std::move(set));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(1), Time(0)));
  rt->run_until(Time(Duration::milliseconds(60).usec()));
  // Aperiodic contribution reset; periodic contribution still held until
  // its deadline.
  // Only the periodic task's 0.1 remains.
  EXPECT_EQ(
      rt->admission_control()->state().ledger().total_units(ProcessorId(0)),
      sched::UtilizationLedger::units(0.1));
  EXPECT_EQ(rt->admission_control()->counters().subjobs_reset, 1u);
}

TEST(IdleResetTest, NoneNeverReports) {
  auto rt = make_runtime("J_N_N", one_periodic_two_stage());
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  rt->run_until(Time(Duration::milliseconds(90).usec()));
  EXPECT_EQ(rt->metrics().idle_resets(), 0u);
  EXPECT_EQ(rt->idle_resetter(ProcessorId(0))->reports_pushed(), 0u);
  // Contribution still present until deadline expiry.
  EXPECT_GT(rt->admission_control()->state().ledger().total(ProcessorId(0)),
            0.0);
}

TEST(IdleResetTest, ResetEnablesMoreAdmissions) {
  // Two tasks each needing most of P0; with per-job AC + IR, the second
  // task's job passes once the first completed and was reset.
  TaskSet set;
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(1000),
                                    {{0, 300000}}))
                  .is_ok());
  ASSERT_TRUE(set.add(make_periodic(1, Duration::milliseconds(1000),
                                    {{0, 300000}}))
                  .is_ok());

  // Without IR: the second task arriving mid-window is rejected.
  {
    auto rt = make_runtime("J_N_N", set);
    RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
    RTCM_EXPECT_OK(rt->inject_arrival(
        TaskId(1), Time(Duration::milliseconds(500).usec())));
    rt->run_until(Time(Duration::seconds(1).usec()));
    EXPECT_EQ(rt->metrics().per_task().at(TaskId(1)).rejections, 1u);
  }
  // With IR per job: task 0's job completed at 300 ms and was reset, so
  // task 1 admits at 500 ms.
  {
    auto rt = make_runtime("J_J_N", set);
    RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
    RTCM_EXPECT_OK(rt->inject_arrival(
        TaskId(1), Time(Duration::milliseconds(500).usec())));
    rt->run_until(Time(Duration::seconds(1).usec()));
    EXPECT_EQ(rt->metrics().per_task().at(TaskId(1)).releases, 1u);
  }
}

// --- Load balancing ----------------------------------------------------------

TEST(LoadBalancingTest, ReallocatesToIdleReplica) {
  TaskSet set;
  // Task 0 occupies P0 heavily; task 1's only stage prefers P0 but has a
  // replica on P1.
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 40000}}))
                  .is_ok());
  ASSERT_TRUE(set.add(make_periodic(1, Duration::milliseconds(100),
                                    {{0, 30000, {1}}}))
                  .is_ok());
  auto rt = make_runtime("J_N_T", std::move(set));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(1), Time(Duration::milliseconds(1).usec())));
  rt->run_until(Time(Duration::milliseconds(90).usec()));
  EXPECT_EQ(rt->metrics().total().releases, 2u);
  // Task 1 ran on its replica processor P1 (re-allocation).
  EXPECT_GE(rt->trace().count(sim::TraceKind::kReallocation), 1u);
  EXPECT_GT(rt->admission_control()->state().ledger().total(ProcessorId(1)),
            0.0);
  EXPECT_GT(rt->load_balancer()->location_calls(), 0u);
}

TEST(LoadBalancingTest, PerTaskPlanIsFrozen) {
  TaskSet set;
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 10000, {1}}}))
                  .is_ok());
  auto rt = make_runtime("J_N_T", std::move(set));
  for (int k = 0; k < 4; ++k) {
    RTCM_EXPECT_OK(rt->inject_arrival(
        TaskId(0), Time(Duration::milliseconds(100 * k).usec())));
  }
  rt->run_until(Time(Duration::milliseconds(450).usec()));
  // The plan was proposed exactly once (first arrival) and reused.
  EXPECT_EQ(rt->load_balancer()->location_calls(), 1u);
  EXPECT_EQ(rt->metrics().total().releases, 4u);
}

TEST(LoadBalancingTest, PerJobProposesEveryJob) {
  TaskSet set;
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 10000, {1}}}))
                  .is_ok());
  auto rt = make_runtime("J_N_J", std::move(set));
  for (int k = 0; k < 4; ++k) {
    RTCM_EXPECT_OK(rt->inject_arrival(
        TaskId(0), Time(Duration::milliseconds(100 * k).usec())));
  }
  rt->run_until(Time(Duration::milliseconds(450).usec()));
  EXPECT_EQ(rt->load_balancer()->location_calls(), 4u);
}

TEST(LoadBalancingTest, ReservationMoveUnderAcTaskLbJob) {
  TaskSet set;
  // Task 0: stage on P0 with replica on P1.  Task 1 later loads P0, so the
  // per-job LB proposal for task 0's next job prefers P1 and the standing
  // reservation moves.
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 10000, {1}}}))
                  .is_ok());
  ASSERT_TRUE(set.add(make_periodic(1, Duration::milliseconds(100),
                                    {{0, 30000}}))
                  .is_ok());
  auto rt = make_runtime("T_N_J", std::move(set));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(1), Time(Duration::milliseconds(10).usec())));
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(0), Time(Duration::milliseconds(100).usec())));
  rt->run_until(Time(Duration::milliseconds(190).usec()));
  EXPECT_GE(rt->admission_control()->counters().reservation_moves, 1u);
  // The reservation now sits on P1.
  const auto reservation =
      rt->admission_control()->state().reservation(TaskId(0));
  ASSERT_TRUE(reservation.has_value());
  EXPECT_EQ(reservation->placement[0], ProcessorId(1));
}

// --- EDMS execution ----------------------------------------------------------

TEST(EdmsExecutionTest, ShorterDeadlineTaskPreempts) {
  TaskSet set;
  // Long task (low priority) occupies P0 for 50 ms; short-deadline task
  // arrives mid-execution and must preempt.
  ASSERT_TRUE(set.add(make_periodic(0, Duration::seconds(1), {{0, 50000}}))
                  .is_ok());
  ASSERT_TRUE(set.add(make_periodic(1, Duration::milliseconds(30),
                                    {{0, 5000}}))
                  .is_ok());
  auto rt = make_runtime("J_N_N", std::move(set));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(1), Time(Duration::milliseconds(10).usec())));
  rt->run_until(Time(Duration::milliseconds(200).usec()));
  EXPECT_EQ(rt->metrics().total().deadline_misses, 0u);
  EXPECT_EQ(rt->processor(ProcessorId(0)).stats().preemptions, 1u);
  // Short task completed at ~15 ms, well inside its 30 ms deadline.
  EXPECT_NEAR(rt->metrics().per_task().at(TaskId(1)).response_ms.mean(), 5.0,
              1.0);
}

// --- Metrics -----------------------------------------------------------------

TEST(MetricsTest, AcceptedUtilizationRatioWeighsByUtilization) {
  TaskSet set;
  // Task 0: utilization 0.4; task 1: utilization 0.1, both single-stage
  // but task 1 on another processor.
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 40000}}))
                  .is_ok());
  ASSERT_TRUE(set.add(make_periodic(1, Duration::milliseconds(100),
                                    {{1, 10000}}))
                  .is_ok());
  auto rt = make_runtime("J_N_N", std::move(set));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(1), Time(0)));
  rt->run_until(Time(Duration::milliseconds(90).usec()));
  EXPECT_DOUBLE_EQ(rt->metrics().accepted_utilization_ratio(), 1.0);
  EXPECT_NEAR(rt->metrics().total().released_utilization, 0.5, 1e-9);
}

// --- Runtime reconfiguration (paper §5) --------------------------------------

TEST(RuntimeReconfigurationTest, TaskEffectorModeChangesAtRuntime) {
  // Start in PJ mode under AC per Task; every job does the AC round trip.
  // Reconfigure the active TE to PT: jobs of the already-admitted task now
  // release immediately.
  auto rt = make_runtime("T_N_N", one_periodic_two_stage());
  TaskEffector* te = rt->task_effector(ProcessorId(0));
  ASSERT_TRUE(te->configure(ccm::TeConfig{TeMode::kPerJob}).is_ok());

  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(0), Time(Duration::milliseconds(100).usec())));
  rt->run_until(Time(Duration::milliseconds(150).usec()));
  EXPECT_EQ(te->immediate_releases(), 0u);  // PJ: both did the round trip

  ASSERT_TRUE(te->configure(ccm::TeConfig{TeMode::kPerTask}).is_ok());
  EXPECT_EQ(te->state(), ccm::LifecycleState::kActive);

  // The first post-switch arrival still does the round trip (the TE only
  // learns the cached placement from that Accept); the next one is
  // released immediately.
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(0), Time(Duration::milliseconds(200).usec())));
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(0), Time(Duration::milliseconds(300).usec())));
  rt->run_until(Time(Duration::milliseconds(350).usec()));
  EXPECT_EQ(te->immediate_releases(), 1u);
  EXPECT_EQ(rt->metrics().total().releases, 4u);
}

TEST(RuntimeReconfigurationTest, AcSwapsStrategiesButRefusesAnalysisSwitch) {
  // The reconfiguration engine swaps AC/LB strategy attributes on a live AC;
  // the analysis (AUB vs DS) carries admission state and stays frozen.
  auto rt = make_runtime("T_N_N", one_periodic_two_stage());
  ccm::AcConfig config;
  config.ac = AcStrategy::kPerJob;
  ASSERT_TRUE(rt->admission_control()->configure(config).is_ok());
  EXPECT_EQ(rt->admission_control()->ac_strategy(), AcStrategy::kPerJob);

  config.analysis = AperiodicAnalysis::kDeferrableServer;
  const Status s = rt->admission_control()->configure(config);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("live"), std::string::npos);
}

TEST(MetricsTest, RenderContainsHeadlineNumbers) {
  auto rt = make_runtime("J_N_N", one_periodic_two_stage());
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  rt->run_until(Time(Duration::milliseconds(90).usec()));
  const std::string text = rt->metrics().render();
  EXPECT_NE(text.find("accepted utilization ratio"), std::string::npos);
  EXPECT_NE(text.find("T0"), std::string::npos);
}

// --- AC counter conservation under bursty overload ---------------------------

TEST(AcCountersTest, CountersPartitionArrivalsUnderBursts) {
  // Every arrival reaching the AC is exactly one of: freshly tested and
  // admitted, freshly tested and rejected, or auto-accepted off a standing
  // reservation.  A bursty aperiodic storm on top of a periodic task (AC per
  // Task: tested once, then auto-accepted) must keep that partition exact.
  // LB per Job makes the TE forward *every* arrival to the AC (under LB=N
  // it releases admitted periodic jobs locally, bypassing the counters).
  TaskSet set;
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(200),
                                    {{0, 20000}}))
                  .is_ok());
  ASSERT_TRUE(set.add(make_aperiodic(1, Duration::milliseconds(250),
                                     {{1, 30000}}))
                  .is_ok());
  auto rt = make_runtime("T_T_J", std::move(set));
  // Periodic background...
  for (int k = 0; k < 10; ++k) {
    RTCM_EXPECT_OK(rt->inject_arrival(
        TaskId(0), Time(Duration::milliseconds(200 * k).usec())));
  }
  // ...plus aperiodic bursts.
  rtcm::testing::BurstShape burst;
  burst.bursts = 2;
  burst.jobs_per_burst = 20;
  burst.intra_gap = Duration::milliseconds(1);
  burst.inter_gap = Duration::seconds(1);
  RTCM_EXPECT_OK(rt->inject_arrivals(
      rtcm::testing::make_bursty_arrivals(TaskId(1), burst)));
  rt->run_until(Time(Duration::seconds(4).usec()));

  const auto& counters = rt->admission_control()->counters();
  const auto& total = rt->metrics().total();
  EXPECT_EQ(total.arrivals, 50u);
  // `admits` counts every accept (auto-accepts included), so admits and
  // rejects partition the arrivals exactly.
  EXPECT_EQ(counters.admits + counters.rejects, total.arrivals);
  EXPECT_EQ(counters.admits, total.releases);
  EXPECT_EQ(counters.rejects, total.rejections);
  // The periodic task was tested exactly once (AC per Task); every
  // aperiodic arrival was tested individually.
  EXPECT_EQ(counters.admission_tests, 1u + 40u);
  EXPECT_EQ(counters.auto_accepts, 9u);
  EXPECT_GT(counters.rejects, 0u);
  EXPECT_EQ(total.deadline_misses, 0u);
}

}  // namespace
}  // namespace rtcm::core
