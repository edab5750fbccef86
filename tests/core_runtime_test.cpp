// Strategy-matrix tests: every valid combination must run a realistic
// workload cleanly; the three invalid combinations must be refused.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/runtime.h"
#include "test_helpers.h"
#include "workload/arrival.h"
#include "workload/generator.h"

namespace rtcm::core {
namespace {

struct ComboParam {
  std::string label;
};

void PrintTo(const ComboParam& p, std::ostream* os) { *os << p.label; }

class ValidComboTest : public ::testing::TestWithParam<ComboParam> {};

TEST_P(ValidComboTest, RunsRandomWorkloadCleanly) {
  Rng rng(7);
  auto shape = workload::random_workload_shape();
  auto tasks = workload::generate_workload(shape, rng);

  SystemConfig config;
  config.strategies = StrategyCombination::parse(GetParam().label).value();
  // Zero latency: the AUB admission guarantee is exact, so every released
  // job must meet its end-to-end deadline.
  config.comm_latency = Duration::zero();
  SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());

  Rng arrival_rng = rng.fork(1);
  const Time horizon(Duration::seconds(30).usec());
  RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(15));

  const auto& total = runtime.metrics().total();
  EXPECT_GT(total.arrivals, 0u);
  EXPECT_GT(total.releases, 0u);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_EQ(total.deadline_misses, 0u)
      << "AUB admission must guarantee deadlines at zero network latency";
  const double ratio = runtime.metrics().accepted_utilization_ratio();
  EXPECT_GT(ratio, 0.0);
  EXPECT_LE(ratio, 1.0 + 1e-9);
  // Conservation: every arrival is either released or rejected.
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
}

INSTANTIATE_TEST_SUITE_P(
    AllValid, ValidComboTest,
    ::testing::Values(ComboParam{"T_N_N"}, ComboParam{"T_N_T"},
                      ComboParam{"T_N_J"}, ComboParam{"T_T_N"},
                      ComboParam{"T_T_T"}, ComboParam{"T_T_J"},
                      ComboParam{"J_N_N"}, ComboParam{"J_N_T"},
                      ComboParam{"J_N_J"}, ComboParam{"J_T_N"},
                      ComboParam{"J_T_T"}, ComboParam{"J_T_J"},
                      ComboParam{"J_J_N"}, ComboParam{"J_J_T"},
                      ComboParam{"J_J_J"}),
    [](const ::testing::TestParamInfo<ComboParam>& info) {
      return info.param.label;
    });

class InvalidComboTest : public ::testing::TestWithParam<ComboParam> {};

TEST_P(InvalidComboTest, AssemblyRefused) {
  Rng rng(7);
  auto tasks = workload::generate_workload(workload::random_workload_shape(),
                                           rng);
  SystemConfig config;
  config.strategies = StrategyCombination::parse(GetParam().label).value();
  SystemRuntime runtime(config, std::move(tasks));
  const Status s = runtime.assemble();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("contradictory"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllInvalid, InvalidComboTest,
    ::testing::Values(ComboParam{"T_J_N"}, ComboParam{"T_J_T"},
                      ComboParam{"T_J_J"}),
    [](const ::testing::TestParamInfo<ComboParam>& info) {
      return info.param.label;
    });

// Determinism: identical seeds and configuration give identical metrics.
TEST(RuntimeDeterminismTest, SameSeedSameOutcome) {
  auto run_once = [] {
    Rng rng(11);
    auto tasks = workload::generate_workload(
        workload::random_workload_shape(), rng);
    SystemConfig config;
    config.strategies = StrategyCombination::parse("J_J_J").value();
    SystemRuntime runtime(config, std::move(tasks));
    EXPECT_TRUE(runtime.assemble().is_ok());
    Rng arrival_rng = rng.fork(1);
    const Time horizon(Duration::seconds(20).usec());
    RTCM_EXPECT_OK(runtime.inject_arrivals(
        workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
    runtime.run_until(horizon + Duration::seconds(15));
    return std::tuple{runtime.metrics().accepted_utilization_ratio(),
                      runtime.metrics().total().releases,
                      runtime.metrics().total().rejections,
                      runtime.admission_control()->counters().admission_tests};
  };
  EXPECT_EQ(run_once(), run_once());
}

// With realistic network latency the generous paper-scale deadlines
// (>= 250 ms) still leave admitted jobs meeting deadlines.
TEST(RuntimeLatencyTest, PaperLatencyDoesNotCauseMisses) {
  Rng rng(13);
  auto tasks = workload::generate_workload(workload::random_workload_shape(),
                                           rng);
  SystemConfig config;
  config.strategies = StrategyCombination::parse("J_J_J").value();
  config.comm_latency = sim::Network::kPaperOneWayDelay;
  SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
  Rng arrival_rng = rng.fork(1);
  const Time horizon(Duration::seconds(30).usec());
  RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(15));
  EXPECT_EQ(runtime.metrics().total().deadline_misses, 0u);
}

TEST(RuntimeTopologyTest, GeneralizedImbalancedTopologyAssemblesAndRuns) {
  // A topology well past the paper's 5-processor testbed (6 primaries + 4
  // replica hosts at utilization 0.75): assembly must cover every hosting
  // processor with infrastructure, and a driven run must stay conservative.
  rtcm::testing::ImbalancedShape shape;
  shape.primaries = 6;
  shape.replicas = 4;
  shape.utilization = 0.75;
  auto tasks = rtcm::testing::make_imbalanced_workload(9, shape);
  SystemConfig config;
  config.strategies = StrategyCombination::parse("J_J_J").value();
  config.comm_latency = Duration::zero();
  SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());

  EXPECT_GE(runtime.app_processors().size(), shape.primaries);
  EXPECT_LE(runtime.app_processors().size(),
            shape.primaries + shape.replicas);
  for (const ProcessorId proc : runtime.app_processors()) {
    EXPECT_NE(runtime.find_container(proc), nullptr);
    EXPECT_NE(runtime.task_effector(proc), nullptr);
  }
  EXPECT_FALSE(std::count(runtime.app_processors().begin(),
                          runtime.app_processors().end(),
                          runtime.task_manager()));

  const Time horizon(Duration::seconds(10).usec());
  Rng arrival_rng = Rng(9).fork(1);
  RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(12));
  const auto& total = runtime.metrics().total();
  EXPECT_GT(total.releases, 0u);
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_EQ(total.deadline_misses, 0u);
}

// Lifecycle misuse: every out-of-order or repeated lifecycle call must come
// back as a clean Status error, never UB.

TEST(RuntimeLifecycleTest, DoubleAssembleIsRefused) {
  SystemConfig config;
  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  ASSERT_TRUE(runtime.assemble().is_ok());
  const Status again = runtime.assemble();
  EXPECT_FALSE(again.is_ok());
  EXPECT_NE(again.message().find("already assembled"), std::string::npos);
  EXPECT_FALSE(runtime.assemble(runtime.plan()).is_ok());
  // The runtime stays usable after the refused second assemble.
  EXPECT_TRUE(runtime.assembled());
  EXPECT_TRUE(runtime.inject_arrival(TaskId(0), Time(0)).is_ok());
}

TEST(RuntimeLifecycleTest, FailedPlanAssemblyIsNotRetried) {
  SystemConfig config;
  SystemRuntime source(config, testing::make_imbalanced_workload(1));
  ASSERT_TRUE(source.assemble().is_ok());
  // Without its AC the plan installs, but binding finds no admission
  // controller on the task manager.
  dance::DeploymentPlan plan = source.plan();
  plan.connections.erase(plan.connections.begin());
  plan.instances.erase(plan.instances.begin() + 1);
  ASSERT_EQ(source.plan().instances[1].id.to_string(), "Central-AC");

  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  const Status s = runtime.assemble(plan);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("no AdmissionControl"), std::string::npos);
  EXPECT_FALSE(runtime.assembled());
  const Status again = runtime.assemble();
  EXPECT_FALSE(again.is_ok());
  EXPECT_NE(again.message().find("failed once"), std::string::npos);
  EXPECT_FALSE(runtime.inject_arrival(TaskId(0), Time(0)).is_ok());
}

TEST(RuntimeLifecycleTest, InjectOnUnassembledRuntimeIsRefused) {
  SystemConfig config;
  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  const Status s = runtime.inject_arrival(TaskId(0), Time(0));
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("not assembled"), std::string::npos);
  EXPECT_FALSE(
      runtime.inject_arrivals({{TaskId(0), Time(0)}}).is_ok());
}

TEST(RuntimeLifecycleTest, InjectUnknownTaskIsRefused) {
  SystemConfig config;
  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  ASSERT_TRUE(runtime.assemble().is_ok());
  const Status s = runtime.inject_arrival(TaskId(999), Time(0));
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("unknown task"), std::string::npos);
}

// A trace is checked whole before any of it is injected: a refused trace
// leaves nothing pending and assigns no job id, so the good trace injected
// next renders exactly as it does on a fresh runtime.
TEST(RuntimeLifecycleTest, RefusedTraceInjectsNothing) {
  SystemConfig config;
  config.enable_trace = true;
  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  ASSERT_TRUE(runtime.assemble().is_ok());
  const Status unknown =
      runtime.inject_arrivals({{TaskId(0), Time(0)}, {TaskId(999), Time(5)}});
  EXPECT_FALSE(unknown.is_ok());
  EXPECT_NE(unknown.message().find("unknown task T999"), std::string::npos);
  EXPECT_EQ(runtime.simulator().pending(), 0u);

  const std::vector<Arrival> good = {{TaskId(1), Time(0)},
                                     {TaskId(0), Time(0)},
                                     {TaskId(0), Time(300000)}};
  SystemRuntime fresh(config, testing::make_imbalanced_workload(1));
  ASSERT_TRUE(fresh.assemble().is_ok());
  RTCM_EXPECT_OK(runtime.inject_arrivals(good));
  RTCM_EXPECT_OK(fresh.inject_arrivals(good));
  EXPECT_EQ(runtime.simulator().pending(), good.size());
  const Time end(Duration::seconds(2).usec());
  runtime.run_until(end);
  fresh.run_until(end);
  EXPECT_EQ(runtime.metrics().total().arrivals, good.size());
  EXPECT_FALSE(runtime.trace().render().empty());
  EXPECT_TRUE(runtime.trace().render() == fresh.trace().render());

  // An arrival before now() is refused the same way.
  const std::size_t pending = runtime.simulator().pending();
  const Status past = runtime.inject_arrivals(
      {{TaskId(0), end}, {TaskId(0), end - Duration(1)}});
  EXPECT_FALSE(past.is_ok());
  EXPECT_NE(past.message().find("before now"), std::string::npos);
  EXPECT_EQ(runtime.simulator().pending(), pending);
}

// Task ids at both ends of the id range run end to end, and arrivals of
// absent ids (unknown, negative, the invalid marker) fail with a Status.
TEST(RuntimeLifecycleTest, ExtremeTaskIdsRunAndUnknownIdsFailCleanly) {
  constexpr std::int32_t kLargest = 2147483646;  // 2^31 - 2
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks
                  .add(testing::make_periodic(0, Duration::milliseconds(100),
                                              {{0, 1000}, {1, 2000}}))
                  .is_ok());
  ASSERT_TRUE(tasks
                  .add(testing::make_aperiodic(
                      kLargest, Duration::milliseconds(200), {{1, 3000}}))
                  .is_ok());
  SystemConfig config;
  config.strategies = StrategyCombination::parse("J_J_J").value();
  SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
  RTCM_EXPECT_OK(runtime.inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(runtime.inject_arrival(TaskId(kLargest), Time(1000)));
  for (const TaskId absent :
       {TaskId(1), TaskId(kLargest - 1), TaskId(-7), TaskId()}) {
    const Status s = runtime.inject_arrival(absent, Time(0));
    EXPECT_FALSE(s.is_ok()) << absent.to_string();
  }
  runtime.run_until(Time(Duration::seconds(1).usec()));
  const auto& total = runtime.metrics().total();
  EXPECT_EQ(total.arrivals, 2u);
  EXPECT_EQ(total.completions, 2u);
  EXPECT_EQ(total.deadline_misses, 0u);
}

}  // namespace
}  // namespace rtcm::core
