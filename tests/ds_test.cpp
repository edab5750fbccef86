// Deferrable-server extension tests: the budget-enforcing server execution
// model, the delay-bound admission analysis, and the end-to-end DS mode of
// the middleware.
#include <gtest/gtest.h>

#include <memory>

#include "core/runtime.h"
#include "sched/ds_admission.h"
#include "sim/deferrable_server.h"
#include "test_helpers.h"
#include "workload/arrival.h"
#include "workload/generator.h"

namespace rtcm {
namespace {

using rtcm::testing::make_aperiodic;
using rtcm::testing::make_periodic;

// --- sim::DeferrableServer ---------------------------------------------------

struct ServerFixture : ::testing::Test {
  ServerFixture() : cpu(sim, ProcessorId(0)) {
    sim::DeferrableServerParams params;
    params.budget = Duration::milliseconds(20);
    params.period = Duration::milliseconds(100);
    server = std::make_unique<sim::DeferrableServer>(sim, cpu, params);
    server->start();
  }

  sim::Simulator sim;
  sim::Processor cpu;
  std::unique_ptr<sim::DeferrableServer> server;
};

TEST_F(ServerFixture, JobWithinBudgetRunsImmediately) {
  Time done;
  server->submit(1, Duration::milliseconds(10),
                 [&](std::uint64_t) { done = sim.now(); });
  // Observe before the t=100ms replenishment restores the budget.
  sim.run_until(Time(Duration::milliseconds(50).usec()));
  EXPECT_EQ(done, Time(Duration::milliseconds(10).usec()));
  EXPECT_EQ(server->stats().jobs_served, 1u);
  EXPECT_EQ(server->stats().budget_exhaustions, 0u);
  EXPECT_EQ(server->budget_remaining(), Duration::milliseconds(10));
  // After the replenishment the budget is full again (deferrable).
  sim.run_until(Time(Duration::milliseconds(200).usec()));
  EXPECT_EQ(server->budget_remaining(), Duration::milliseconds(20));
}

TEST_F(ServerFixture, JobLargerThanBudgetSpansReplenishments) {
  // 50 ms of work through a 20 ms/100 ms server: 20 ms at t=0, 20 ms after
  // the t=100 replenishment, 10 ms after t=200 -> completes at 210 ms.
  Time done;
  server->submit(1, Duration::milliseconds(50),
                 [&](std::uint64_t) { done = sim.now(); });
  sim.run_until(Time(Duration::milliseconds(400).usec()));
  EXPECT_EQ(done, Time(Duration::milliseconds(210).usec()));
  EXPECT_EQ(server->stats().budget_exhaustions, 2u);
  EXPECT_GE(server->stats().chunks_dispatched, 3u);
}

TEST_F(ServerFixture, BudgetRetainedWhileIdleDeferrable) {
  // Nothing happens until t=150; the server retained its full budget, so a
  // 20 ms job completes at 170 ms without waiting for t=200.
  Time done;
  sim.schedule_at(Time(Duration::milliseconds(150).usec()), [&] {
    server->submit(1, Duration::milliseconds(20),
                   [&](std::uint64_t) { done = sim.now(); });
  });
  sim.run_until(Time(Duration::milliseconds(400).usec()));
  EXPECT_EQ(done, Time(Duration::milliseconds(170).usec()));
}

TEST_F(ServerFixture, FifoAcrossJobs) {
  std::vector<std::uint64_t> order;
  server->submit(1, Duration::milliseconds(15),
                 [&](std::uint64_t id) { order.push_back(id); });
  server->submit(2, Duration::milliseconds(15),
                 [&](std::uint64_t id) { order.push_back(id); });
  sim.run_until(Time(Duration::milliseconds(500).usec()));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  // Job 1: 15 ms of the 20 ms budget; job 2 gets 5 ms, then waits.
  EXPECT_EQ(server->stats().budget_exhaustions, 1u);
}

TEST_F(ServerFixture, ServedWorkPreemptsPeriodicWork) {
  // A long low-priority (EDMS level 3) periodic job occupies the CPU; a
  // served aperiodic job preempts it immediately.
  Time periodic_done;
  Time served_done;
  cpu.submit({7, Priority(3), Duration::milliseconds(60),
              [&](std::uint64_t) { periodic_done = sim.now(); }});
  sim.schedule_at(Time(Duration::milliseconds(10).usec()), [&] {
    server->submit(1, Duration::milliseconds(10),
                   [&](std::uint64_t) { served_done = sim.now(); });
  });
  sim.run_until(Time(Duration::milliseconds(500).usec()));
  EXPECT_EQ(served_done, Time(Duration::milliseconds(20).usec()));
  EXPECT_EQ(periodic_done, Time(Duration::milliseconds(70).usec()));
  EXPECT_EQ(cpu.stats().preemptions, 1u);
}

TEST_F(ServerFixture, ReplenishmentsAreCounted) {
  sim.run_until(Time(Duration::milliseconds(550).usec()));
  EXPECT_EQ(server->stats().replenishments, 5u);
}

TEST_F(ServerFixture, LowerIdArrivingMidChunkServedBeforeUnfinishedWork) {
  // Admission-order regression test: id 10 starts a 20 ms chunk of its
  // 30 ms demand; id 5 arrives mid-chunk.  After the budget exhaustion,
  // id 5 must be served before id 10's remainder — otherwise id 5's delay
  // bound (computed without id 10's work) would be violated.
  std::vector<std::pair<std::uint64_t, std::int64_t>> completions;
  auto record = [&](std::uint64_t id) {
    completions.push_back({id, sim.now().usec()});
  };
  server->submit(10, Duration::milliseconds(30), record);
  sim.schedule_at(Time(Duration::milliseconds(5).usec()), [&] {
    server->submit(5, Duration::milliseconds(10), record);
  });
  sim.run_until(Time(Duration::milliseconds(300).usec()));
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].first, 5u);
  EXPECT_EQ(completions[0].second, 110000);  // replenish at 100, 10 ms run
  EXPECT_EQ(completions[1].first, 10u);
  EXPECT_EQ(completions[1].second, 120000);  // remaining 10 ms after id 5
}

TEST_F(ServerFixture, ReplenishmentDuringChunkGrantsBackToBackBudget) {
  // Budget is committed at dispatch: a chunk straddling a replenishment
  // leaves the fresh budget fully usable right after it completes
  // (back-to-back).  Accounting at completion would void it and delay the
  // remainder by a whole period.
  Time done;
  sim.schedule_at(Time(Duration::milliseconds(90).usec()), [&] {
    server->submit(1, Duration::milliseconds(40),
                   [&](std::uint64_t) { done = sim.now(); });
  });
  sim.run_until(Time(Duration::milliseconds(400).usec()));
  // Chunk 1: [90, 110] (replenish at 100); chunk 2: [110, 130].
  EXPECT_EQ(done, Time(Duration::milliseconds(130).usec()));
}

// --- sched::DsAdmission ------------------------------------------------------

sched::DsServerConfig test_config() {
  sched::DsServerConfig config;
  config.budget = Duration::milliseconds(25);
  config.period = Duration::milliseconds(100);
  return config;
}

TEST(DsAdmissionTest, ConfigDerivedQuantities) {
  const auto config = test_config();
  EXPECT_DOUBLE_EQ(config.utilization(), 0.25);
  EXPECT_DOUBLE_EQ(config.periodic_interference(), 0.5);
  EXPECT_EQ(config.max_latency(), Duration::milliseconds(75));
}

/// The AC's admission test: the end-to-end bound from one stage_bounds pass.
Duration bound_of(const sched::DsAdmission& admission,
                  const sched::TaskSpec& task,
                  const events::Placement& placement) {
  return admission.end_to_end_bound(admission.stage_bounds(task, placement));
}

TEST(DsAdmissionTest, DelayBoundOnEmptyServer) {
  sched::DsAdmission admission(test_config());
  // One 10 ms stage: (P-B) + C*P/B = 75ms + 40ms = 115 ms.
  const auto task = make_aperiodic(0, Duration::milliseconds(500),
                                   {{0, 10000}});
  EXPECT_EQ(bound_of(admission, task, {ProcessorId(0)}),
            Duration::milliseconds(115));
  EXPECT_LE(bound_of(admission, task, {ProcessorId(0)}), task.deadline);
}

TEST(DsAdmissionTest, TightDeadlineRejected) {
  sched::DsAdmission admission(test_config());
  const auto task = make_aperiodic(0, Duration::milliseconds(114),
                                   {{0, 10000}});
  EXPECT_GT(bound_of(admission, task, {ProcessorId(0)}), task.deadline);
}

TEST(DsAdmissionTest, BacklogRaisesTheBound) {
  sched::DsAdmission admission(test_config());
  const auto first = make_aperiodic(0, Duration::seconds(2), {{0, 10000}});
  admission.admit(JobId(7), first, {ProcessorId(0)});
  EXPECT_EQ(admission.backlog(ProcessorId(0)), Duration::milliseconds(10));
  EXPECT_EQ(admission.active_jobs(), 1u);

  const auto second = make_aperiodic(1, Duration::milliseconds(500),
                                     {{0, 10000}});
  // 75ms + (10ms + 10ms) * 4 = 155 ms.
  EXPECT_EQ(bound_of(admission, second, {ProcessorId(0)}),
            Duration::milliseconds(155));

  // Releasing the stage restores the empty-server bound.
  EXPECT_TRUE(admission.release_stage(JobId(7), 0));
  EXPECT_FALSE(admission.release_stage(JobId(7), 0));  // idempotent
  EXPECT_FALSE(admission.release_stage(JobId(7), 1));  // no such stage
  EXPECT_FALSE(admission.release_stage(JobId(8), 0));  // unknown job
  EXPECT_EQ(admission.backlog(ProcessorId(0)), Duration::zero());
  EXPECT_EQ(bound_of(admission, second, {ProcessorId(0)}),
            Duration::milliseconds(115));
}

TEST(DsAdmissionTest, ExpireReleasesOnlyWhatRemains) {
  sched::DsAdmission admission(test_config());
  const auto two_hop = make_aperiodic(0, Duration::seconds(2),
                                      {{0, 10000}, {1, 20000}});
  const auto one_hop = make_aperiodic(1, Duration::seconds(2), {{1, 5000}});
  admission.admit(JobId(1), two_hop, {ProcessorId(0), ProcessorId(1)});
  admission.admit(JobId(2), one_hop, {ProcessorId(1)});
  EXPECT_EQ(admission.backlog(ProcessorId(1)), Duration::milliseconds(25));
  EXPECT_TRUE(admission.release_stage(JobId(1), 0));
  // Expiry takes back stage 1 only; stage 0 was already released.
  admission.expire(JobId(1));
  EXPECT_EQ(admission.backlog(ProcessorId(0)), Duration::zero());
  EXPECT_EQ(admission.backlog(ProcessorId(1)), Duration::microseconds(5000));
  EXPECT_FALSE(admission.release_stage(JobId(1), 1));  // forgotten
  admission.expire(JobId(1));                           // no-op
  EXPECT_EQ(admission.active_jobs(), 1u);
  // The moved row (job 2) is still addressable.
  EXPECT_TRUE(admission.release_stage(JobId(2), 0));
  EXPECT_EQ(admission.backlog(ProcessorId(1)), Duration::zero());
}

TEST(DsAdmissionTest, MultiHopSumsPerStage) {
  sched::DsAdmission admission(test_config());
  const auto task = make_aperiodic(0, Duration::seconds(2),
                                   {{0, 10000}, {1, 5000}});
  // (75 + 40) + (75 + 20) = 210 ms.
  EXPECT_EQ(bound_of(admission, task, {ProcessorId(0), ProcessorId(1)}),
            Duration::milliseconds(210));
}

// --- End-to-end DS mode ------------------------------------------------------

std::unique_ptr<core::SystemRuntime> make_ds_runtime(
    sched::TaskSet tasks, const std::string& combo = "J_T_N",
    Duration budget = Duration::milliseconds(25)) {
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse(combo).value();
  config.comm_latency = Duration::zero();
  config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  config.ds_server.budget = budget;
  config.ds_server.period = Duration::milliseconds(100);
  auto runtime =
      std::make_unique<core::SystemRuntime>(config, std::move(tasks));
  const Status s = runtime->assemble();
  EXPECT_TRUE(s.is_ok()) << s.message();
  return runtime;
}

TEST(DsRuntimeTest, ServersDeployedPerApplicationProcessor) {
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks.add(make_aperiodic(0, Duration::seconds(1),
                                       {{0, 10000}, {1, 10000}}))
                  .is_ok());
  auto rt = make_ds_runtime(std::move(tasks));
  EXPECT_NE(rt->deferrable_server(ProcessorId(0)), nullptr);
  EXPECT_NE(rt->deferrable_server(ProcessorId(1)), nullptr);
  EXPECT_EQ(rt->deferrable_server(rt->task_manager()), nullptr);
  EXPECT_EQ(rt->admission_control()->analysis(),
            core::AperiodicAnalysis::kDeferrableServer);
  ASSERT_NE(rt->admission_control()->ds_admission(), nullptr);
}

TEST(DsRuntimeTest, AperiodicJobServedWithinDelayBound) {
  sched::TaskSet tasks;
  ASSERT_TRUE(
      tasks.add(make_aperiodic(0, Duration::seconds(1), {{0, 10000}}))
          .is_ok());
  auto rt = make_ds_runtime(std::move(tasks));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  rt->run_until(Time(Duration::seconds(2).usec()));
  const auto& total = rt->metrics().total();
  EXPECT_EQ(total.releases, 1u);
  EXPECT_EQ(total.completions, 1u);
  EXPECT_EQ(total.deadline_misses, 0u);
  // Empty-server bound is 115 ms; actual service is faster (full budget).
  EXPECT_LE(rt->metrics().per_task().at(TaskId(0)).response_ms.max(), 115.0);
  EXPECT_GT(rt->deferrable_server(ProcessorId(0))->stats().jobs_served, 0u);
}

TEST(DsRuntimeTest, PeriodicTasksUnaffectedByServerWhenIdle) {
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks.add(make_periodic(0, Duration::milliseconds(400),
                                      {{0, 40000}}))
                  .is_ok());
  ASSERT_TRUE(
      tasks.add(make_aperiodic(1, Duration::seconds(1), {{0, 10000}}))
          .is_ok());
  // A 10 ms/100 ms server reserves 2*B/P = 0.2 against periodic work, which
  // leaves room for the 0.1-utilization periodic task (a 25 ms budget would
  // reserve 0.5 and correctly reject it).
  auto rt = make_ds_runtime(std::move(tasks), "J_T_N",
                            Duration::milliseconds(10));
  for (int k = 0; k < 4; ++k) {
    RTCM_EXPECT_OK(rt->inject_arrival(
        TaskId(0), Time(Duration::milliseconds(400 * k).usec())));
  }
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(1), Time(Duration::milliseconds(100).usec())));
  rt->run_until(Time(Duration::seconds(3).usec()));
  EXPECT_EQ(rt->metrics().total().deadline_misses, 0u);
  EXPECT_EQ(rt->metrics().per_task().at(TaskId(0)).completions, 4u);
  EXPECT_EQ(rt->metrics().per_task().at(TaskId(1)).completions, 1u);
}

TEST(DsRuntimeTest, OverloadedServerRejectsAperiodicJobs) {
  sched::TaskSet tasks;
  // 40 ms of work per job against a 25 ms/100 ms server with a deadline too
  // tight for the delay bound: 75 + 40*4 = 235 ms > 230 ms.
  ASSERT_TRUE(tasks.add(make_aperiodic(0, Duration::milliseconds(230),
                                       {{0, 40000}}))
                  .is_ok());
  auto rt = make_ds_runtime(std::move(tasks));
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  rt->run_until(Time(Duration::seconds(1).usec()));
  EXPECT_EQ(rt->metrics().total().rejections, 1u);
  EXPECT_EQ(rt->metrics().total().releases, 0u);
}

TEST(DsRuntimeTest, BacklogReleasedAtPredictedCompletion) {
  sched::TaskSet tasks;
  // Each job's bound alone: 75 + 80 = 155 ms <= 200 ms deadline; with a
  // 20 ms backlog ahead: 75 + 160 = 235 ms > 200 ms.  The job arriving at
  // 10 ms is rejected, but the one arriving at 180 ms is admitted because
  // the first job's backlog was released at its predicted completion
  // (155 ms) — before its 200 ms deadline backstop.
  ASSERT_TRUE(tasks.add(make_aperiodic(0, Duration::milliseconds(200),
                                       {{0, 20000}}))
                  .is_ok());
  auto rt = make_ds_runtime(std::move(tasks), "J_N_N");  // no idle resetting
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(0), Time(Duration::milliseconds(10).usec())));
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(0), Time(Duration::milliseconds(180).usec())));
  rt->run_until(Time(Duration::seconds(2).usec()));
  EXPECT_EQ(rt->metrics().total().releases, 2u);
  EXPECT_EQ(rt->metrics().total().rejections, 1u);
  EXPECT_EQ(rt->metrics().total().deadline_misses, 0u);
}

TEST(DsRuntimeTest, IdleResetReleasesDsBacklogEarly) {
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks.add(make_aperiodic(0, Duration::milliseconds(200),
                                       {{0, 20000}}))
                  .is_ok());
  // The first job actually completes at ~20 ms and the processor idles;
  // with IR per task its backlog is reported complete right then — well
  // before the 155 ms predicted release — so an arrival at 100 ms IS
  // admitted (it would be rejected without idle resetting).
  auto rt = make_ds_runtime(std::move(tasks), "J_T_N");
  RTCM_EXPECT_OK(rt->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(rt->inject_arrival(
      TaskId(0), Time(Duration::milliseconds(100).usec())));
  rt->run_until(Time(Duration::seconds(1).usec()));
  EXPECT_EQ(rt->metrics().total().releases, 2u);
  EXPECT_EQ(rt->metrics().total().rejections, 0u);
}

// Property: DS-mode random workloads never miss admitted deadlines.
class DsDeadlineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DsDeadlineTest, AdmittedJobsMeetDeadlines) {
  Rng rng(GetParam());
  auto tasks =
      workload::generate_workload(workload::random_workload_shape(), rng);
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_T_T").value();
  config.comm_latency = Duration::zero();
  config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  config.ds_server.budget = Duration::milliseconds(20);
  config.ds_server.period = Duration::milliseconds(100);
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
  Rng arrival_rng = rng.fork(1);
  const Time horizon(Duration::seconds(20).usec());
  RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(15));
  EXPECT_EQ(runtime.metrics().total().deadline_misses, 0u);
  EXPECT_EQ(runtime.metrics().total().releases,
            runtime.metrics().total().completions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DsDeadlineTest, ::testing::Values(1, 2, 3, 4));

TEST(DsRuntimeTest, BurstyArrivalsConservedAndServedInOrder) {
  // Two aperiodic tasks bursting simultaneously: the server must shed the
  // overload at admission (no silent job loss), serve everything it admits
  // within the per-admission delay bound (no deadline misses), and recover
  // fully between bursts.
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks.add(make_aperiodic(0, Duration::milliseconds(500),
                                       {{0, 10000}}))
                  .is_ok());
  ASSERT_TRUE(tasks.add(make_aperiodic(1, Duration::milliseconds(800),
                                       {{1, 15000}, {0, 5000}}))
                  .is_ok());
  auto rt = make_ds_runtime(std::move(tasks));

  rtcm::testing::BurstShape burst;
  burst.bursts = 3;
  burst.jobs_per_burst = 8;
  burst.intra_gap = Duration::milliseconds(3);
  burst.inter_gap = Duration::seconds(1);
  RTCM_EXPECT_OK(rt->inject_arrivals(
      rtcm::testing::make_bursty_arrivals({TaskId(0), TaskId(1)}, burst)));
  rt->run_until(Time(Duration::seconds(8).usec()));

  const auto& total = rt->metrics().total();
  EXPECT_EQ(total.arrivals, 48u);
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_EQ(total.deadline_misses, 0u);
  EXPECT_GT(total.completions, 0u);
  // Every burst clears: once quiescent, the DS book holds no backlog.
  for (const ProcessorId proc : rt->app_processors()) {
    EXPECT_EQ(rt->admission_control()->ds_admission()->backlog(proc),
              Duration::zero());
  }
}

}  // namespace
}  // namespace rtcm
