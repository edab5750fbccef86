#include <gtest/gtest.h>

#include <set>

#include "config/engine.h"
#include "config/plan_builder.h"
#include "config/questionnaire.h"
#include "config/workload_spec.h"
#include "test_helpers.h"

namespace rtcm::config {
namespace {

using rtcm::testing::make_periodic;

constexpr const char* kSpec = R"(# industrial plant monitoring workload
task sensor-scan periodic deadline=500ms period=500ms
  subtask exec=20ms primary=P0 replicas=P2
  subtask exec=10ms primary=P1
task hazard-alert aperiodic deadline=250ms mean_interarrival=2s
  subtask exec=5ms primary=P1 replicas=P0,P2
task archiver periodic deadline=5s period=5s
  subtask exec=100ms primary=P2
)";

// --- parse_duration ----------------------------------------------------------

TEST(ParseDurationTest, Units) {
  EXPECT_EQ(parse_duration("250ms").value(), Duration::milliseconds(250));
  EXPECT_EQ(parse_duration("1.5s").value(), Duration::microseconds(1500000));
  EXPECT_EQ(parse_duration("322us").value(), Duration::microseconds(322));
  EXPECT_EQ(parse_duration("1000").value(), Duration::microseconds(1000));
  EXPECT_EQ(parse_duration(" 2s ").value(), Duration::seconds(2));
}

TEST(ParseDurationTest, Malformed) {
  EXPECT_FALSE(parse_duration("").is_ok());
  EXPECT_FALSE(parse_duration("abc").is_ok());
  EXPECT_FALSE(parse_duration("1.2.3s").is_ok());
  EXPECT_FALSE(parse_duration("-5ms").is_ok());
}

// --- workload spec -----------------------------------------------------------

TEST(WorkloadSpecTest, ParsesTasksAndSubtasks) {
  const auto parsed = parse_workload_spec(kSpec);
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const sched::TaskSet& set = parsed.value();
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.periodic_count(), 2u);

  const sched::TaskSpec* scan = set.find(TaskId(0));
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->name, "sensor-scan");
  EXPECT_EQ(scan->deadline, Duration::milliseconds(500));
  ASSERT_EQ(scan->subtasks.size(), 2u);
  EXPECT_EQ(scan->subtasks[0].primary, ProcessorId(0));
  EXPECT_EQ(scan->subtasks[0].replicas,
            (std::vector<ProcessorId>{ProcessorId(2)}));
  EXPECT_EQ(scan->subtasks[0].execution, Duration::milliseconds(20));

  const sched::TaskSpec* alert = set.find(TaskId(1));
  ASSERT_NE(alert, nullptr);
  EXPECT_EQ(alert->kind, sched::TaskKind::kAperiodic);
  EXPECT_EQ(alert->mean_interarrival, Duration::seconds(2));
  EXPECT_EQ(alert->subtasks[0].replicas.size(), 2u);
}

TEST(WorkloadSpecTest, AperiodicDefaultsInterarrivalToDeadline) {
  const auto parsed = parse_workload_spec(
      "task t aperiodic deadline=1s\n  subtask exec=1ms primary=P0\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  EXPECT_EQ(parsed.value().find(TaskId(0))->mean_interarrival,
            Duration::seconds(1));
}

TEST(WorkloadSpecTest, RoundTrip) {
  const auto parsed = parse_workload_spec(kSpec);
  ASSERT_TRUE(parsed.is_ok());
  const std::string text = workload_spec_to_text(parsed.value());
  const auto reparsed = parse_workload_spec(text);
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.message();
  ASSERT_EQ(reparsed.value().size(), parsed.value().size());
  for (std::size_t i = 0; i < parsed.value().size(); ++i) {
    const auto& a = parsed.value().tasks()[i];
    const auto& b = reparsed.value().tasks()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.deadline, b.deadline);
    EXPECT_EQ(a.subtasks.size(), b.subtasks.size());
    for (std::size_t j = 0; j < a.subtasks.size(); ++j) {
      EXPECT_EQ(a.subtasks[j].execution, b.subtasks[j].execution);
      EXPECT_EQ(a.subtasks[j].primary, b.subtasks[j].primary);
      EXPECT_EQ(a.subtasks[j].replicas, b.subtasks[j].replicas);
    }
  }
}

TEST(WorkloadSpecTest, ErrorsCarryLineNumbers) {
  const auto r = parse_workload_spec(
      "task t periodic deadline=1s period=1s\n"
      "  subtask exec=bogus primary=P0\n");
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.message().find("line 2"), std::string::npos);
}

TEST(WorkloadSpecTest, RejectsBadInput) {
  EXPECT_FALSE(parse_workload_spec("").is_ok());
  EXPECT_FALSE(parse_workload_spec("bogus line\n").is_ok());
  EXPECT_FALSE(parse_workload_spec("subtask exec=1ms primary=P0\n").is_ok());
  EXPECT_FALSE(parse_workload_spec("task t sometimes deadline=1s\n").is_ok());
  EXPECT_FALSE(
      parse_workload_spec("task t periodic deadline=1s period=1s\n").is_ok());
  EXPECT_FALSE(parse_workload_spec(
                   "task t periodic deadline=1s period=1s unknown=1\n"
                   "  subtask exec=1ms primary=P0\n")
                   .is_ok());
}

// --- questionnaire -----------------------------------------------------------

TEST(QuestionnaireTest, ParseAnswers) {
  const auto a = parse_answers("yes", "no", "y", "PJ");
  ASSERT_TRUE(a.is_ok());
  EXPECT_TRUE(a.value().job_skipping);
  EXPECT_FALSE(a.value().replicated_components);
  EXPECT_TRUE(a.value().state_persistence);
  EXPECT_EQ(a.value().overhead, core::OverheadTolerance::kPerJob);
}

TEST(QuestionnaireTest, ParseRejectsBadAnswers) {
  EXPECT_FALSE(parse_answers("maybe", "no", "no", "PT").is_ok());
  EXPECT_FALSE(parse_answers("yes", "no", "no", "sometimes").is_ok());
}

TEST(QuestionnaireTest, ToCharacteristics) {
  Answers a;
  a.job_skipping = true;
  a.replicated_components = true;
  a.state_persistence = false;
  a.overhead = core::OverheadTolerance::kNone;
  const auto c = to_characteristics(a);
  EXPECT_TRUE(c.job_skipping);
  EXPECT_TRUE(c.component_replication);
  EXPECT_FALSE(c.state_persistency);
  EXPECT_EQ(c.overhead_tolerance, core::OverheadTolerance::kNone);
}

TEST(QuestionnaireTest, RenderListsAllFourQuestions) {
  const std::string q = render_questions();
  EXPECT_NE(q.find("(1)"), std::string::npos);
  EXPECT_NE(q.find("(4)"), std::string::npos);
  EXPECT_NE(q.find("job skipping"), std::string::npos);
}

// --- plan builder ------------------------------------------------------------

TEST(PlanBuilderTest, BuildsFullTopology) {
  const auto tasks = parse_workload_spec(kSpec);
  ASSERT_TRUE(tasks.is_ok());
  PlanBuilderInput input;
  input.tasks = &tasks.value();
  input.strategies = core::StrategyCombination::parse("T_T_T").value();
  input.task_manager = ProcessorId(3);
  const auto plan = build_deployment_plan(input);
  ASSERT_TRUE(plan.is_ok()) << plan.message();

  // 2 central + 3x(TE+IR) + subtask instances (incl. replicas):
  // sensor-scan: stage0 on P0+P2, stage1 on P1 -> 3
  // hazard-alert: stage0 on P1+P0+P2 -> 3
  // archiver: stage0 on P2 -> 1
  EXPECT_EQ(plan.value().instances.size(), 2u + 6u + 7u);
  using ccm::ComponentKind;
  EXPECT_NE(plan.value().find_instance(
                {ComponentKind::kAdmissionControl, ProcessorId(3)}),
            nullptr);
  EXPECT_NE(plan.value().find_instance(
                {ComponentKind::kTaskEffector, ProcessorId(1)}),
            nullptr);
  EXPECT_NE(plan.value().find_instance(
                {ComponentKind::kIdleResetter, ProcessorId(2)}),
            nullptr);
  EXPECT_NE(plan.value().find_instance(
                {ComponentKind::kSubtaskFI, ProcessorId(2), TaskId(0), 0}),
            nullptr);

  // EDMS: hazard-alert (250 ms) is the most urgent.
  const auto* alert_stage = plan.value().find_instance(
      {ComponentKind::kSubtaskLast, ProcessorId(1), TaskId(1), 0});
  ASSERT_NE(alert_stage, nullptr);
  EXPECT_EQ(std::get<ccm::SubtaskConfig>(alert_stage->config).priority,
            Priority(0));

  // One Complete connection per subtask instance plus ac-location.
  EXPECT_EQ(plan.value().connections.size(), 1u + 7u);
  EXPECT_TRUE(plan.value().validate().is_ok());
}

TEST(PlanBuilderTest, RejectsInvalidStrategies) {
  const auto tasks = parse_workload_spec(kSpec);
  ASSERT_TRUE(tasks.is_ok());
  PlanBuilderInput input;
  input.tasks = &tasks.value();
  input.strategies = core::StrategyCombination{
      core::AcStrategy::kPerTask, core::IrStrategy::kPerJob,
      core::LbStrategy::kNone};
  input.task_manager = ProcessorId(3);
  EXPECT_FALSE(build_deployment_plan(input).is_ok());
}

TEST(PlanBuilderTest, RejectsManagerCollision) {
  const auto tasks = parse_workload_spec(kSpec);
  ASSERT_TRUE(tasks.is_ok());
  PlanBuilderInput input;
  input.tasks = &tasks.value();
  input.strategies = core::default_strategies();
  input.task_manager = ProcessorId(0);
  EXPECT_FALSE(build_deployment_plan(input).is_ok());
}

TEST(PlanBuilderTest, RejectsEmptyTasks) {
  PlanBuilderInput input;
  EXPECT_FALSE(build_deployment_plan(input).is_ok());
}

// --- engine ------------------------------------------------------------------

TEST(EngineTest, ConfigureMapsFigure4Example) {
  EngineInput input;
  input.workload_spec = kSpec;
  // Figure 4's answers: 1. N  2. Y  3. Y  4. PT
  input.answers = parse_answers("no", "yes", "yes", "PT").value();
  const auto out = ConfigurationEngine().configure(input);
  ASSERT_TRUE(out.is_ok()) << out.message();
  EXPECT_EQ(out.value().selection.strategies.label(), "T_T_T");
  EXPECT_NE(out.value().xml.find("LB_Strategy"), std::string::npos);
  EXPECT_NE(out.value().xml.find("<string>PT</string>"), std::string::npos);
  EXPECT_EQ(out.value().task_manager, ProcessorId(3));
  // EDMS priorities travel in the Subtask configs: one level per task.
  std::set<Priority> levels;
  for (const auto& inst : out.value().plan.instances) {
    if (const auto* st = std::get_if<ccm::SubtaskConfig>(&inst.config)) {
      levels.insert(st->priority);
    }
  }
  EXPECT_EQ(levels.size(), 3u);
}

TEST(EngineTest, ExplicitInvalidCombinationRefused) {
  EngineInput input;
  input.workload_spec = kSpec;
  input.explicit_strategies = core::StrategyCombination{
      core::AcStrategy::kPerTask, core::IrStrategy::kPerJob,
      core::LbStrategy::kPerTask};
  const auto out = ConfigurationEngine().configure(input);
  EXPECT_FALSE(out.is_ok());
  EXPECT_NE(out.message().find("invalid service configuration"),
            std::string::npos);
}

TEST(EngineTest, BadSpecReported) {
  EngineInput input;
  input.workload_spec = "garbage\n";
  const auto out = ConfigurationEngine().configure(input);
  EXPECT_FALSE(out.is_ok());
  EXPECT_NE(out.message().find("workload spec"), std::string::npos);
}

TEST(EngineTest, LaunchBuildsWorkingRuntime) {
  EngineInput input;
  input.workload_spec = kSpec;
  input.answers = parse_answers("yes", "yes", "no", "PJ").value();  // J_J_J
  const auto out = ConfigurationEngine().configure(input);
  ASSERT_TRUE(out.is_ok()) << out.message();
  EXPECT_EQ(out.value().selection.strategies.label(), "J_J_J");

  core::SystemConfig base;
  base.comm_latency = Duration::zero();
  auto runtime = ConfigurationEngine::launch(out.value(), base);
  ASSERT_TRUE(runtime.is_ok()) << runtime.message();
  core::SystemRuntime& rt = *runtime.value();
  EXPECT_TRUE(rt.assembled());

  RTCM_EXPECT_OK(rt.inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(rt.inject_arrival(TaskId(1), Time(0)));
  rt.run_until(Time(Duration::seconds(1).usec()));
  EXPECT_EQ(rt.metrics().total().releases, 2u);
  EXPECT_EQ(rt.metrics().total().completions, 2u);
  EXPECT_EQ(rt.metrics().total().deadline_misses, 0u);
}

TEST(EngineTest, DefaultAnswersGiveDefaultStrategies) {
  EngineInput input;
  input.workload_spec = kSpec;
  // Default-constructed Answers: no skipping, no replication, no state,
  // per-task overhead -> T_T_N (no replication disables LB).
  const auto out = ConfigurationEngine().configure(input);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().selection.strategies.label(), "T_T_N");
}

}  // namespace
}  // namespace rtcm::config
