// Online reconfiguration engine (`ctest -R Reconfig` selects this layer):
// plan-diff algebra, live application with guarantee-preserving migration,
// rejection/rollback atomicity, quiesce ordering, the configuration engine's
// mode-change plan sequences, and a trace golden for a scripted run.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/engine.h"
#include "config/plan_builder.h"
#include "core/runtime.h"
#include "core/subtask_component.h"
#include "dance/plan_xml.h"
#include "reconfig/manager.h"
#include "reconfig/plan_diff.h"
#include "test_helpers.h"
#include "workload/arrival.h"
#include "workload/generator.h"

namespace rtcm {
namespace {

using rtcm::testing::make_periodic;
using rtcm::testing::ReconfigScriptBuilder;

std::unique_ptr<core::SystemRuntime> make_runtime(const std::string& combo,
                                                  sched::TaskSet tasks,
                                                  bool trace = false) {
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse(combo).value();
  config.comm_latency = Duration::zero();
  config.enable_trace = trace;
  auto runtime =
      std::make_unique<core::SystemRuntime>(config, std::move(tasks));
  EXPECT_TRUE(runtime->assemble().is_ok());
  return runtime;
}

/// One periodic task, deadline 100 ms, one 10 ms stage on P0 with a P1
/// duplicate — the smallest workload where a drain has somewhere to go.
sched::TaskSet replicated_task() {
  sched::TaskSet tasks;
  EXPECT_TRUE(tasks.add(make_periodic(0, Duration::milliseconds(100),
                                      {{0, 10000, {1}}}))
                  .is_ok());
  return tasks;
}

config::PlanBuilderInput plan_input_for(const sched::TaskSet& tasks,
                                        const std::string& combo) {
  config::PlanBuilderInput input;
  input.tasks = &tasks;
  input.strategies = core::StrategyCombination::parse(combo).value();
  std::int32_t max_id = 0;
  for (const ProcessorId p : tasks.processors()) {
    max_id = std::max(max_id, p.value());
  }
  input.task_manager = ProcessorId(max_id + 1);
  return input;
}

/// Order-insensitive plan equality (apply preserves from-plan order, which
/// legitimately differs from the target's).
bool same_plan(dance::DeploymentPlan a, dance::DeploymentPlan b) {
  auto by_id = [](const dance::InstanceDeployment& x,
                  const dance::InstanceDeployment& y) { return x.id < y.id; };
  auto by_key = [](const dance::ConnectionDeployment& x,
                   const dance::ConnectionDeployment& y) {
    return std::tie(x.source_instance, x.receptacle) <
           std::tie(y.source_instance, y.receptacle);
  };
  std::sort(a.instances.begin(), a.instances.end(), by_id);
  std::sort(b.instances.begin(), b.instances.end(), by_id);
  std::sort(a.connections.begin(), a.connections.end(), by_key);
  std::sort(b.connections.begin(), b.connections.end(), by_key);
  return a.instances == b.instances && a.connections == b.connections;
}

// --- Plan-diff algebra -------------------------------------------------------

TEST(ReconfigPlanDiffTest, DiffOfIdenticalPlansIsEmpty) {
  const auto tasks = replicated_task();
  const auto plan =
      config::build_deployment_plan(plan_input_for(tasks, "T_N_N"));
  ASSERT_TRUE(plan.is_ok()) << plan.message();
  const auto diff = reconfig::PlanDiffer::diff(plan.value(), plan.value());
  ASSERT_TRUE(diff.is_ok()) << diff.message();
  EXPECT_TRUE(diff.value().empty());
}

TEST(ReconfigPlanDiffTest, StrategySwapYieldsOnlyReconfigureOps) {
  const auto tasks = replicated_task();
  const auto from =
      config::build_deployment_plan(plan_input_for(tasks, "T_N_N"));
  const auto to = config::build_deployment_plan(plan_input_for(tasks, "J_J_J"));
  ASSERT_TRUE(from.is_ok() && to.is_ok());
  const auto diff = reconfig::PlanDiffer::diff(from.value(), to.value());
  ASSERT_TRUE(diff.is_ok()) << diff.message();
  const reconfig::Changeset& cs = diff.value();
  using K = reconfig::ChangeKind;
  EXPECT_GT(cs.count(K::kReconfigureInstance), 0u);
  EXPECT_EQ(cs.count(K::kAddInstance), 0u);
  EXPECT_EQ(cs.count(K::kRemoveInstance), 0u);
  EXPECT_EQ(cs.count(K::kMigrateInstance), 0u);
  // AC strategy attrs, TE mode, IR strategy and subtask IR_Mode all change.
  EXPECT_GE(cs.count(K::kReconfigureInstance), 4u);

  const auto applied = reconfig::apply_changeset(from.value(), cs);
  ASSERT_TRUE(applied.is_ok()) << applied.message();
  EXPECT_TRUE(same_plan(applied.value(), to.value()));
}

TEST(ReconfigPlanDiffTest, DrainRemovesAndUndrainRestoresInstances) {
  const auto tasks = replicated_task();
  auto input = plan_input_for(tasks, "T_N_N");
  const auto full = config::build_deployment_plan(input);
  input.drained = {ProcessorId(0)};
  const auto drained = config::build_deployment_plan(input);
  ASSERT_TRUE(full.is_ok() && drained.is_ok()) << drained.message();

  const auto down = reconfig::PlanDiffer::diff(full.value(), drained.value());
  ASSERT_TRUE(down.is_ok());
  using K = reconfig::ChangeKind;
  EXPECT_EQ(down.value().count(K::kRemoveInstance), 1u);  // T0_S0@P0
  EXPECT_EQ(down.value().count(K::kRemoveConnection), 1u);
  EXPECT_EQ(down.value().count(K::kAddInstance), 0u);
  // Canonical order: tear-down (connections, then instances) first.
  ASSERT_GE(down.value().changes.size(), 2u);
  EXPECT_EQ(down.value().changes[0].kind, K::kRemoveConnection);
  EXPECT_EQ(down.value().changes[1].kind, K::kRemoveInstance);
  EXPECT_EQ(down.value().changes[1].instance.id, "T0_S0@P0");

  const auto up = reconfig::PlanDiffer::diff(drained.value(), full.value());
  ASSERT_TRUE(up.is_ok());
  EXPECT_EQ(up.value().count(K::kAddInstance), 1u);
  EXPECT_EQ(up.value().count(K::kAddConnection), 1u);
  EXPECT_EQ(up.value().count(K::kRemoveInstance), 0u);

  const auto round = reconfig::apply_changeset(full.value(), down.value());
  ASSERT_TRUE(round.is_ok());
  EXPECT_TRUE(same_plan(round.value(), drained.value()));
  const auto back = reconfig::apply_changeset(round.value(), up.value());
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(same_plan(back.value(), full.value()));
}

TEST(ReconfigPlanDiffTest, SameIdOnDifferentNodeIsAMigration) {
  dance::DeploymentPlan from;
  from.label = "a";
  dance::InstanceDeployment inst;
  inst.id = "X";
  inst.type = "rtcm.TaskEffector";
  inst.node = ProcessorId(0);
  from.instances.push_back(inst);
  dance::DeploymentPlan to = from;
  to.label = "b";
  to.instances[0].node = ProcessorId(1);

  const auto diff = reconfig::PlanDiffer::diff(from, to);
  ASSERT_TRUE(diff.is_ok());
  ASSERT_EQ(diff.value().changes.size(), 1u);
  const reconfig::Change& c = diff.value().changes[0];
  EXPECT_EQ(c.kind, reconfig::ChangeKind::kMigrateInstance);
  EXPECT_EQ(c.from_node, ProcessorId(0));
  EXPECT_EQ(c.instance.node, ProcessorId(1));

  const auto applied = reconfig::apply_changeset(from, diff.value());
  ASSERT_TRUE(applied.is_ok());
  EXPECT_TRUE(same_plan(applied.value(), to));
}

TEST(ReconfigPlanDiffTest, TypeChangeIsRemovePlusAdd) {
  dance::DeploymentPlan from;
  dance::InstanceDeployment inst;
  inst.id = "X";
  inst.type = "rtcm.TaskEffector";
  inst.node = ProcessorId(0);
  from.instances.push_back(inst);
  dance::DeploymentPlan to = from;
  to.instances[0].type = "rtcm.IdleResetter";

  const auto diff = reconfig::PlanDiffer::diff(from, to);
  ASSERT_TRUE(diff.is_ok());
  using K = reconfig::ChangeKind;
  EXPECT_EQ(diff.value().count(K::kRemoveInstance), 1u);
  EXPECT_EQ(diff.value().count(K::kAddInstance), 1u);
  EXPECT_EQ(diff.value().count(K::kReconfigureInstance), 0u);
  const auto applied = reconfig::apply_changeset(from, diff.value());
  ASSERT_TRUE(applied.is_ok());
  EXPECT_TRUE(same_plan(applied.value(), to));
}

TEST(ReconfigPlanDiffTest, ChangedEndpointIsARewire) {
  dance::DeploymentPlan from;
  for (const char* id : {"A", "B", "C"}) {
    dance::InstanceDeployment inst;
    inst.id = id;
    inst.type = "rtcm.TaskEffector";
    inst.node = ProcessorId(0);
    from.instances.push_back(inst);
  }
  from.connections.push_back({"a-to-b", "A", "Out", "B", "In"});
  dance::DeploymentPlan to = from;
  to.connections[0].target_instance = "C";

  const auto diff = reconfig::PlanDiffer::diff(from, to);
  ASSERT_TRUE(diff.is_ok());
  ASSERT_EQ(diff.value().changes.size(), 1u);
  const reconfig::Change& c = diff.value().changes[0];
  EXPECT_EQ(c.kind, reconfig::ChangeKind::kRewireConnection);
  EXPECT_EQ(c.old_connection.target_instance, "B");
  EXPECT_EQ(c.connection.target_instance, "C");
  const auto applied = reconfig::apply_changeset(from, diff.value());
  ASSERT_TRUE(applied.is_ok());
  EXPECT_TRUE(same_plan(applied.value(), to));
}

TEST(ReconfigPlanDiffTest, ApplyChangesetRejectsInconsistencies) {
  const auto tasks = replicated_task();
  const auto plan =
      config::build_deployment_plan(plan_input_for(tasks, "T_N_N"));
  ASSERT_TRUE(plan.is_ok());

  reconfig::Changeset cs;
  reconfig::Change remove_missing;
  remove_missing.kind = reconfig::ChangeKind::kRemoveInstance;
  remove_missing.instance.id = "no-such-instance";
  cs.changes.push_back(remove_missing);
  EXPECT_FALSE(reconfig::apply_changeset(plan.value(), cs).is_ok());

  cs.changes.clear();
  reconfig::Change duplicate;
  duplicate.kind = reconfig::ChangeKind::kAddInstance;
  duplicate.instance = plan.value().instances.front();
  cs.changes.push_back(duplicate);
  EXPECT_FALSE(reconfig::apply_changeset(plan.value(), cs).is_ok());
}

// --- Live application --------------------------------------------------------

TEST(ReconfigManagerTest, StrategySwapAppliesLiveToEveryLayer) {
  auto runtime = make_runtime("T_N_N", replicated_task());
  reconfig::ReconfigurationManager manager(*runtime);

  config::ModeChange change;
  change.at = Time(0);
  change.label = "go-per-job";
  change.strategies = core::StrategyCombination::parse("J_J_J").value();
  const reconfig::ReconfigReport report = manager.apply_now(change);
  EXPECT_TRUE(report.applied) << report.error;
  EXPECT_GE(report.reconfigured, 4u);
  EXPECT_EQ(report.migrated_tasks, 0u);

  EXPECT_EQ(runtime->admission_control()->ac_strategy(),
            core::AcStrategy::kPerJob);
  EXPECT_EQ(runtime->admission_control()->lb_strategy(),
            core::LbStrategy::kPerJob);
  EXPECT_EQ(runtime->idle_resetter(ProcessorId(0))->strategy(),
            core::IrStrategy::kPerJob);
  EXPECT_EQ(runtime->config().strategies.label(), "J_J_J");

  // The swapped system still serves jobs cleanly.
  RTCM_EXPECT_OK(runtime->inject_arrival(TaskId(0), Time(0)));
  runtime->run_until(Time(Duration::milliseconds(90).usec()));
  EXPECT_EQ(runtime->metrics().total().completions, 1u);
  EXPECT_EQ(runtime->metrics().total().deadline_misses, 0u);
}

TEST(ReconfigManagerTest, LbPolicySwapAppliesLive) {
  auto runtime = make_runtime("T_N_T", replicated_task());
  reconfig::ReconfigurationManager manager(*runtime);
  EXPECT_EQ(runtime->load_balancer()->policy(),
            sched::PlacementPolicy::kLowestUtilization);

  config::ModeChange change;
  change.at = Time(0);
  change.lb_policy = "primary";
  const auto report = manager.apply_now(change);
  EXPECT_TRUE(report.applied) << report.error;
  EXPECT_EQ(runtime->load_balancer()->policy(),
            sched::PlacementPolicy::kPrimaryOnly);
}

TEST(ReconfigManagerTest, DrainMigratesReservationAndQuiescesLater) {
  auto runtime = make_runtime("T_N_N", replicated_task(), /*trace=*/true);
  reconfig::ReconfigurationManager manager(*runtime);

  // First arrival reserves T0 on its primary P0 and starts a 10 ms subjob.
  RTCM_EXPECT_OK(runtime->inject_arrival(TaskId(0), Time(0)));
  runtime->run_until(Time(Duration::milliseconds(5).usec()));
  auto reservation =
      runtime->admission_control()->state().reservation(TaskId(0));
  ASSERT_TRUE(reservation.has_value());
  EXPECT_TRUE(std::ranges::equal(
      reservation->placement, std::vector<ProcessorId>{ProcessorId(0)}));

  config::ModeChange change;
  change.at = runtime->simulator().now();
  change.label = "drain-P0";
  change.drain = {ProcessorId(0)};
  const auto report = manager.apply_now(change);
  ASSERT_TRUE(report.applied) << report.error;
  EXPECT_EQ(report.migrated_tasks, 1u);
  EXPECT_EQ(report.removed, 1u);
  EXPECT_EQ(manager.drained(), (std::set<ProcessorId>{ProcessorId(0)}));

  // The reservation moved to the duplicate; the ledger moved with it.
  reservation = runtime->admission_control()->state().reservation(TaskId(0));
  ASSERT_TRUE(reservation.has_value());
  EXPECT_TRUE(std::ranges::equal(
      reservation->placement, std::vector<ProcessorId>{ProcessorId(1)}));
  const auto& ledger = runtime->admission_control()->state().ledger();
  EXPECT_DOUBLE_EQ(ledger.total(ProcessorId(0)), 0.0);
  EXPECT_NEAR(ledger.total(ProcessorId(1)), 0.1, 1e-12);

  // Quiesce is deferred past every deadline that could still reach P0
  // (now + D = 5 ms + 100 ms), so the in-flight subjob finishes in place.
  EXPECT_EQ(report.quiesce_at, Time(Duration::milliseconds(105).usec()));
  auto* old_instance =
      runtime->container(ProcessorId(0)).find_as<core::LastSubtask>(
          "T0_S0@P0");
  ASSERT_NE(old_instance, nullptr);
  EXPECT_EQ(old_instance->state(), ccm::LifecycleState::kActive);

  // A later job of the admitted task releases immediately on the new host.
  RTCM_EXPECT_OK(runtime->inject_arrival(
      TaskId(0), Time(Duration::milliseconds(100).usec())));
  runtime->run_until(Time(Duration::milliseconds(200).usec()));
  EXPECT_EQ(old_instance->state(), ccm::LifecycleState::kPassivated);
  EXPECT_EQ(old_instance->subjobs_executed(), 1u);  // only the pre-drain job
  auto* new_instance =
      runtime->container(ProcessorId(1)).find_as<core::LastSubtask>(
          "T0_S0@P1");
  ASSERT_NE(new_instance, nullptr);
  EXPECT_EQ(new_instance->subjobs_executed(), 1u);
  EXPECT_EQ(old_instance->triggers_dropped(), 0u);

  const auto& total = runtime->metrics().total();
  EXPECT_EQ(total.completions, 2u);
  EXPECT_EQ(total.deadline_misses, 0u);
  EXPECT_EQ(runtime->trace().count(sim::TraceKind::kTaskMigrated), 1u);
  EXPECT_EQ(runtime->trace().count(sim::TraceKind::kNodeQuiesced), 1u);
}

/// Two tasks on a shared duplicate host, sized so draining P0 would push
/// its utilization past the AUB bound: T1 holds 0.4 on P1, and moving T0's
/// 0.3 there makes term(0.7) > 1.
sched::TaskSet overloaded_pair() {
  sched::TaskSet tasks;
  EXPECT_TRUE(tasks.add(make_periodic(0, Duration::milliseconds(100),
                                      {{0, 30000, {1}}}))
                  .is_ok());
  EXPECT_TRUE(
      tasks.add(make_periodic(1, Duration::milliseconds(100), {{1, 40000}}))
          .is_ok());
  return tasks;
}

TEST(ReconfigManagerTest, GuaranteeViolatingDrainIsRejectedAtomically) {
  auto runtime = make_runtime("T_N_N", overloaded_pair(), /*trace=*/true);
  reconfig::ReconfigurationManager manager(*runtime);
  RTCM_EXPECT_OK(runtime->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(runtime->inject_arrival(TaskId(1), Time(0)));
  runtime->run_until(Time(Duration::milliseconds(50).usec()));
  const auto& ledger = runtime->admission_control()->state().ledger();
  ASSERT_NEAR(ledger.total(ProcessorId(0)), 0.3, 1e-12);
  ASSERT_NEAR(ledger.total(ProcessorId(1)), 0.4, 1e-12);

  config::ModeChange change;
  change.at = runtime->simulator().now();
  change.label = "bad-drain";
  change.drain = {ProcessorId(0)};
  const auto report = manager.apply_now(change);
  EXPECT_FALSE(report.applied);
  EXPECT_NE(report.error.find("guarantee"), std::string::npos) << report.error;
  EXPECT_EQ(manager.rejected_count(), 1u);
  EXPECT_TRUE(manager.drained().empty());
  EXPECT_TRUE(runtime->admission_control()->drained().empty());

  // Rolled back exactly: ledger, reservation placement, and future behavior.
  EXPECT_NEAR(ledger.total(ProcessorId(0)), 0.3, 1e-12);
  EXPECT_NEAR(ledger.total(ProcessorId(1)), 0.4, 1e-12);
  EXPECT_TRUE(std::ranges::equal(
      runtime->admission_control()->state().reservation(TaskId(0))->placement,
      std::vector<ProcessorId>{ProcessorId(0)}));
  RTCM_EXPECT_OK(runtime->inject_arrival(
      TaskId(0), Time(Duration::milliseconds(100).usec())));
  runtime->run_until(Time(Duration::milliseconds(200).usec()));
  EXPECT_EQ(runtime->metrics().total().completions, 3u);
  EXPECT_EQ(runtime->metrics().total().deadline_misses, 0u);
  EXPECT_EQ(runtime->trace().count(sim::TraceKind::kReconfigRejected), 1u);
  // A rolled-back migration never happened: no counter, no trace record.
  EXPECT_EQ(runtime->admission_control()->counters().migrations, 0u);
  EXPECT_EQ(runtime->trace().count(sim::TraceKind::kTaskMigrated), 0u);
}

TEST(ReconfigManagerTest, NewAttributeKeyInReconfigureIsRejected) {
  // configure() merges maps, so a brand-new key could survive a rollback;
  // the manager refuses such reconfigurations up front.
  auto runtime = make_runtime("T_N_N", replicated_task());
  reconfig::ReconfigurationManager manager(*runtime);
  dance::DeploymentPlan target = manager.current_plan();
  for (auto& inst : target.instances) {
    if (inst.id == "Central-LB") inst.properties.set_string("Brand-New", "x");
  }
  const auto report = manager.apply_plan_now(target, "new-key");
  EXPECT_FALSE(report.applied);
  EXPECT_NE(report.error.find("introduces attribute"), std::string::npos)
      << report.error;
}

TEST(ReconfigManagerTest, RejectionRollsBackAttributeSwapsToo) {
  auto runtime = make_runtime("T_N_N", overloaded_pair());
  reconfig::ReconfigurationManager manager(*runtime);
  RTCM_EXPECT_OK(runtime->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(runtime->inject_arrival(TaskId(1), Time(0)));
  runtime->run_until(Time(Duration::milliseconds(50).usec()));

  // One combined mode change: strategy swap + infeasible drain.  The drain
  // rejection must also undo the already-applied attribute swaps.
  config::ModeChange change;
  change.at = runtime->simulator().now();
  change.strategies = core::StrategyCombination::parse("J_J_J").value();
  change.lb_policy = "random";
  change.drain = {ProcessorId(0)};
  const auto report = manager.apply_now(change);
  EXPECT_FALSE(report.applied);

  EXPECT_EQ(runtime->admission_control()->ac_strategy(),
            core::AcStrategy::kPerTask);
  EXPECT_EQ(runtime->admission_control()->lb_strategy(),
            core::LbStrategy::kNone);
  EXPECT_EQ(runtime->idle_resetter(ProcessorId(0))->strategy(),
            core::IrStrategy::kNone);
  EXPECT_EQ(runtime->load_balancer()->policy(),
            sched::PlacementPolicy::kLowestUtilization);
  EXPECT_EQ(runtime->config().strategies.label(), "T_N_N");
  EXPECT_EQ(manager.applied_count(), 0u);
}

TEST(ReconfigManagerTest, UndrainCancelsPendingQuiesce) {
  auto runtime = make_runtime("T_N_N", replicated_task(), /*trace=*/true);
  reconfig::ReconfigurationManager manager(*runtime);
  RTCM_EXPECT_OK(runtime->inject_arrival(TaskId(0), Time(0)));

  const auto script = ReconfigScriptBuilder()
                          .drain(Time(Duration::milliseconds(20).usec()), 0)
                          .undrain(Time(Duration::milliseconds(40).usec()), 0)
                          .build();
  ASSERT_TRUE(manager.schedule_script(script).is_ok());
  runtime->run_until(Time(Duration::milliseconds(300).usec()));

  EXPECT_EQ(manager.applied_count(), 2u);
  EXPECT_TRUE(manager.drained().empty());
  // The pending passivation (due at 20 ms + 100 ms) was cancelled by the
  // undrain: the instance is live again and no node was quiesced.
  auto* instance =
      runtime->container(ProcessorId(0)).find_as<core::LastSubtask>(
          "T0_S0@P0");
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(instance->state(), ccm::LifecycleState::kActive);
  EXPECT_EQ(runtime->trace().count(sim::TraceKind::kNodeQuiesced), 0u);
  EXPECT_EQ(runtime->metrics().total().deadline_misses, 0u);
}

TEST(ReconfigManagerTest, EmptyModeChangeIsAppliedNoOp) {
  auto runtime = make_runtime("T_N_N", replicated_task());
  reconfig::ReconfigurationManager manager(*runtime);
  const auto report = manager.apply_now(config::ModeChange{});
  EXPECT_TRUE(report.applied) << report.error;
  EXPECT_EQ(report.reconfigured + report.added + report.removed, 0u);
  EXPECT_EQ(manager.applied_count(), 1u);
}

TEST(ReconfigManagerTest, BaselineIsTheRuntimesLaunchedPlan) {
  auto runtime = make_runtime("J_T_J", replicated_task());
  reconfig::ReconfigurationManager manager(*runtime);
  EXPECT_FALSE(runtime->plan().instances.empty());
  EXPECT_EQ(manager.current_plan(), runtime->plan());
  const auto rebuilt = config::build_deployment_plan(config::plan_input(
      runtime->config(), runtime->tasks(), runtime->task_manager()));
  ASSERT_TRUE(rebuilt.is_ok()) << rebuilt.message();
  EXPECT_EQ(rebuilt.value(), runtime->plan());
}

TEST(ReconfigManagerTest, BaselineFollowsAnEngineLaunchedPolicy) {
  // The engine deploys LB policy "primary" while the runtime's base config
  // keeps the default; the manager must diff against what was launched.
  config::EngineInput input;
  input.workload_spec =
      "task a periodic deadline=100ms period=100ms\n"
      "  subtask exec=10ms primary=P0 replicas=P1\n";
  input.explicit_strategies = core::StrategyCombination::parse("T_N_T").value();
  input.lb_policy = "primary";
  const auto output = config::ConfigurationEngine().configure(input);
  ASSERT_TRUE(output.is_ok()) << output.message();
  auto launched =
      config::ConfigurationEngine::launch(output.value(), core::SystemConfig{});
  ASSERT_TRUE(launched.is_ok()) << launched.message();
  core::SystemRuntime& runtime = *launched.value();
  // The runtime's config describes the launched plan, policy included.
  EXPECT_EQ(runtime.config().lb_policy, "primary");

  reconfig::ReconfigurationManager manager(runtime);
  EXPECT_EQ(manager.current_plan(), output.value().plan);
  EXPECT_EQ(manager.apply_now(config::ModeChange{}).reconfigured, 0u);
  config::ModeChange to_default;
  to_default.lb_policy = "lowest-util";
  const auto report = manager.apply_now(to_default);
  EXPECT_TRUE(report.applied) << report.error;
  EXPECT_EQ(report.reconfigured, 1u);
  EXPECT_EQ(runtime.load_balancer()->policy(),
            sched::PlacementPolicy::kLowestUtilization);
  EXPECT_EQ(runtime.config().lb_policy, "lowest-util");
}

TEST(ReconfigManagerTest, DiffApplyEqualsDirectLaunchOfTargetMode) {
  // Launching T_T_N and immediately reconfiguring to J_J_J must behave
  // exactly like launching J_J_J: diff + apply == direct launch.
  auto run = [](const std::string& initial,
                const std::optional<std::string>& swap_to) {
    auto tasks = rtcm::testing::make_imbalanced_workload(42);
    core::SystemConfig config;
    config.strategies = core::StrategyCombination::parse(initial).value();
    config.comm_latency = Duration::zero();
    core::SystemRuntime runtime(config, std::move(tasks));
    EXPECT_TRUE(runtime.assemble().is_ok());
    reconfig::ReconfigurationManager manager(runtime);
    if (swap_to.has_value()) {
      config::ModeChange change;
      change.at = Time(0);
      change.strategies = core::StrategyCombination::parse(*swap_to).value();
      EXPECT_TRUE(manager.schedule(change).is_ok());
    }
    Rng arrival_rng = Rng(42).fork(1);
    const Time horizon(Duration::seconds(5).usec());
    RTCM_EXPECT_OK(runtime.inject_arrivals(
        workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
    runtime.run_until(horizon + Duration::seconds(11));
    const auto& total = runtime.metrics().total();
    return std::tuple{total.arrivals, total.releases, total.rejections,
                      total.completions, total.deadline_misses,
                      runtime.metrics().accepted_utilization_ratio()};
  };
  EXPECT_EQ(run("T_T_N", "J_J_J"), run("J_J_J", std::nullopt));
}

TEST(ReconfigManagerTest, ScheduledScriptAppliesAtRequestedVirtualTimes) {
  auto runtime = make_runtime("T_N_N", replicated_task());
  reconfig::ReconfigurationManager manager(*runtime);
  const auto script =
      ReconfigScriptBuilder()
          .swap_lb_policy(Time(Duration::milliseconds(10).usec()), "random")
          .swap_strategies(Time(Duration::milliseconds(20).usec()), "J_N_N")
          .build();
  ASSERT_TRUE(manager.schedule_script(script).is_ok());
  runtime->run_until(Time(Duration::milliseconds(30).usec()));

  ASSERT_EQ(manager.history().size(), 2u);
  EXPECT_EQ(manager.history()[0].at, Time(Duration::milliseconds(10).usec()));
  EXPECT_EQ(manager.history()[1].at, Time(Duration::milliseconds(20).usec()));
  EXPECT_TRUE(manager.history()[0].applied);
  EXPECT_TRUE(manager.history()[1].applied);
  EXPECT_EQ(runtime->admission_control()->ac_strategy(),
            core::AcStrategy::kPerJob);
}

TEST(ReconfigManagerTest, XmlScheduledPlanAppliesThroughTheDancePath) {
  const auto tasks = replicated_task();
  auto runtime = make_runtime("T_N_N", tasks);
  reconfig::ReconfigurationManager manager(*runtime);

  auto input = plan_input_for(tasks, "J_N_N");
  input.tasks = &runtime->tasks();
  input.label = "xml-target";
  const auto target = config::build_deployment_plan(input);
  ASSERT_TRUE(target.is_ok()) << target.message();
  ASSERT_TRUE(manager
                  .schedule_xml(Time(Duration::milliseconds(5).usec()),
                                dance::plan_to_xml(target.value()), "from-xml")
                  .is_ok());
  runtime->run_until(Time(Duration::milliseconds(10).usec()));
  ASSERT_EQ(manager.applied_count(), 1u);
  EXPECT_EQ(runtime->admission_control()->ac_strategy(),
            core::AcStrategy::kPerJob);
  EXPECT_EQ(manager.history().front().label, "from-xml");
}

TEST(ReconfigManagerTest, PartialDrainIsRejectedAsUnsupported) {
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks.add(make_periodic(0, Duration::milliseconds(100),
                                      {{0, 10000, {1}}}))
                  .is_ok());
  ASSERT_TRUE(tasks.add(make_periodic(1, Duration::milliseconds(100),
                                      {{0, 10000, {1}}}))
                  .is_ok());
  auto runtime = make_runtime("T_N_N", tasks);
  reconfig::ReconfigurationManager manager(*runtime);

  // Hand-craft a target that removes T0's instance on P0 but keeps T1's.
  dance::DeploymentPlan target = manager.current_plan();
  std::erase_if(target.instances, [](const dance::InstanceDeployment& inst) {
    return inst.id == "T0_S0@P0";
  });
  std::erase_if(target.connections, [](const dance::ConnectionDeployment& c) {
    return c.source_instance == "T0_S0@P0";
  });
  const auto report = manager.apply_plan_now(target, "partial");
  EXPECT_FALSE(report.applied);
  EXPECT_NE(report.error.find("partial drain"), std::string::npos)
      << report.error;
}

TEST(ReconfigManagerTest, InfrastructureRemovalIsRejectedAsUnsupported) {
  auto runtime = make_runtime("T_N_N", replicated_task());
  reconfig::ReconfigurationManager manager(*runtime);
  dance::DeploymentPlan target = manager.current_plan();
  std::erase_if(target.instances, [](const dance::InstanceDeployment& inst) {
    return inst.id == "TE@P0";
  });
  const auto report = manager.apply_plan_now(target, "drop-te");
  EXPECT_FALSE(report.applied);
  EXPECT_NE(report.error.find("infrastructure"), std::string::npos)
      << report.error;
}

// --- Configuration engine: mode-change plan sequences ------------------------

constexpr const char* kSequenceSpec = R"(# mode-change workload
task sensor-scan periodic deadline=500ms period=500ms
  subtask exec=20ms primary=P0 replicas=P2
  subtask exec=10ms primary=P1
task hazard-alert aperiodic deadline=250ms mean_interarrival=2s
  subtask exec=5ms primary=P1 replicas=P0,P2
task archiver periodic deadline=5s period=5s
  subtask exec=100ms primary=P2 replicas=P0
)";

TEST(ReconfigEngineTest, EmitsPlanSequenceForModeChangeSchedule) {
  config::EngineInput input;
  input.workload_spec = kSequenceSpec;
  input.explicit_strategies = core::StrategyCombination::parse("T_N_N").value();
  config::ModeChange swap;
  swap.at = Time(Duration::seconds(5).usec());
  swap.label = "switch-lb";
  swap.strategies = core::StrategyCombination::parse("J_N_J").value();
  config::ModeChange drain;
  drain.at = Time(Duration::seconds(12).usec());
  drain.label = "drain-node-2";
  drain.drain = {ProcessorId(2)};
  input.mode_changes = {swap, drain};

  const auto output = config::ConfigurationEngine().configure(input);
  ASSERT_TRUE(output.is_ok()) << output.message();
  ASSERT_EQ(output.value().schedule.size(), 2u);

  const config::TimedPlan& first = output.value().schedule[0];
  EXPECT_EQ(first.at, swap.at);
  EXPECT_EQ(first.label, "switch-lb");
  const auto* ac = first.plan.find_instance("Central-AC");
  ASSERT_NE(ac, nullptr);
  EXPECT_EQ(ac->properties.get_string("AC_Strategy").value(), "PJ");
  EXPECT_EQ(ac->properties.get_string("LB_Strategy").value(), "PJ");
  EXPECT_NE(first.plan.find_instance("T2_S0@P2"), nullptr);

  // Step 2 keeps the swapped strategies and drops every Subtask on P2.
  const config::TimedPlan& second = output.value().schedule[1];
  EXPECT_EQ(second.plan.find_instance("T2_S0@P2"), nullptr);
  EXPECT_EQ(second.plan.find_instance("T0_S0@P2"), nullptr);
  EXPECT_NE(second.plan.find_instance("T2_S0@P0"), nullptr);
  EXPECT_NE(second.plan.find_instance("TE@P2"), nullptr);  // TE/IR stay
  const auto* ac2 = second.plan.find_instance("Central-AC");
  ASSERT_NE(ac2, nullptr);
  EXPECT_EQ(ac2->properties.get_string("AC_Strategy").value(), "PJ");
  EXPECT_FALSE(second.xml.empty());
}

TEST(ReconfigEngineTest, RefusesInvalidModeChangeUpFront) {
  config::EngineInput input;
  input.workload_spec = kSequenceSpec;
  input.explicit_strategies = core::StrategyCombination::parse("T_N_N").value();
  config::ModeChange bad;
  bad.at = Time(Duration::seconds(5).usec());
  bad.strategies = core::StrategyCombination{core::AcStrategy::kPerTask,
                                             core::IrStrategy::kPerJob,
                                             core::LbStrategy::kNone};
  input.mode_changes = {bad};
  const auto output = config::ConfigurationEngine().configure(input);
  EXPECT_FALSE(output.is_ok());
  EXPECT_NE(output.message().find("mode change"), std::string::npos);

  config::EngineInput hostless;
  hostless.workload_spec = kSequenceSpec;
  hostless.explicit_strategies =
      core::StrategyCombination::parse("T_N_N").value();
  config::ModeChange bad_drain;
  bad_drain.at = Time(Duration::seconds(1).usec());
  bad_drain.drain = {ProcessorId(1)};  // hazard-alert stage 0... P1 has
                                       // replicas, but sensor-scan S1 only P1
  hostless.mode_changes = {bad_drain};
  const auto refused = config::ConfigurationEngine().configure(hostless);
  EXPECT_FALSE(refused.is_ok());
  EXPECT_NE(refused.message().find("without any host"), std::string::npos);
}

TEST(ReconfigEngineTest, EmittedScheduleDrivesTheManagerEndToEnd) {
  config::EngineInput input;
  input.workload_spec = kSequenceSpec;
  input.explicit_strategies = core::StrategyCombination::parse("T_N_N").value();
  config::ModeChange swap;
  swap.at = Time(Duration::seconds(2).usec());
  swap.strategies = core::StrategyCombination::parse("J_N_J").value();
  config::ModeChange drain;
  drain.at = Time(Duration::seconds(4).usec());
  drain.drain = {ProcessorId(2)};
  input.mode_changes = {swap, drain};
  const auto output = config::ConfigurationEngine().configure(input);
  ASSERT_TRUE(output.is_ok()) << output.message();

  core::SystemConfig base;
  base.comm_latency = Duration::zero();
  auto launched = config::ConfigurationEngine::launch(output.value(), base);
  ASSERT_TRUE(launched.is_ok()) << launched.message();
  core::SystemRuntime& runtime = *launched.value();

  reconfig::ReconfigurationManager manager(runtime);
  for (const config::TimedPlan& step : output.value().schedule) {
    ASSERT_TRUE(
        manager.schedule_plan(step.at, step.plan, step.label).is_ok());
  }
  Rng arrival_rng(7);
  const Time horizon(Duration::seconds(8).usec());
  RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(6));

  EXPECT_EQ(manager.applied_count(), 2u);
  EXPECT_EQ(manager.drained(), (std::set<ProcessorId>{ProcessorId(2)}));
  EXPECT_EQ(runtime.admission_control()->ac_strategy(),
            core::AcStrategy::kPerJob);
  const auto& total = runtime.metrics().total();
  EXPECT_EQ(total.deadline_misses, 0u);
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_GT(total.completions, 0u);
}

// --- Determinism and trace golden --------------------------------------------

TEST(ReconfigDeterminismTest, SameScriptSameSeedByteIdenticalTrace) {
  auto run_once = [](std::uint64_t seed) {
    auto tasks = rtcm::testing::make_imbalanced_workload(17);
    core::SystemConfig config;
    config.strategies = core::StrategyCombination::parse("T_T_N").value();
    config.comm_latency = Duration::zero();
    config.enable_trace = true;
    core::SystemRuntime runtime(config, std::move(tasks));
    EXPECT_TRUE(runtime.assemble().is_ok());
    reconfig::ReconfigurationManager manager(runtime);
    const Time horizon(Duration::seconds(6).usec());
    EXPECT_TRUE(manager
                    .schedule_script(rtcm::testing::make_random_reconfig_script(
                        seed, runtime.app_processors(), horizon))
                    .is_ok());
    Rng arrival_rng = Rng(17).fork(1);
    RTCM_EXPECT_OK(runtime.inject_arrivals(
        workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
    runtime.run_until(horizon + Duration::seconds(11));
    return runtime.trace().render();
  };
  const std::string first = run_once(3);
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, run_once(3));
  EXPECT_NE(first, run_once(4));  // different scripts genuinely differ
}

TEST(ReconfigGoldenTraceTest, ScriptedDrainEventSequence) {
  // One admitted task, one pre-drain job, a scripted drain, one post-drain
  // job: the exact lifecycle including migration, reconfiguration and the
  // deferred quiesce.
  auto runtime = make_runtime("T_N_N", replicated_task(), /*trace=*/true);
  reconfig::ReconfigurationManager manager(*runtime);
  const auto script =
      ReconfigScriptBuilder()
          .drain(Time(Duration::milliseconds(50).usec()), 0)
          .build();
  ASSERT_TRUE(manager.schedule_script(script).is_ok());
  RTCM_EXPECT_OK(runtime->inject_arrival(TaskId(0), Time(0)));
  RTCM_EXPECT_OK(runtime->inject_arrival(
      TaskId(0), Time(Duration::milliseconds(60).usec())));
  runtime->run_until(Time(Duration::milliseconds(200).usec()));

  std::vector<sim::TraceKind> kinds;
  for (const auto& record : runtime->trace().records()) {
    if (record.kind == sim::TraceKind::kIdle) continue;  // per-CPU noise
    kinds.push_back(record.kind);
  }
  const std::vector<sim::TraceKind> expected = {
      // job 0 on P0
      sim::TraceKind::kJobArrival, sim::TraceKind::kAdmissionTest,
      sim::TraceKind::kJobAdmitted, sim::TraceKind::kJobReleased,
      sim::TraceKind::kSubjobComplete, sim::TraceKind::kJobComplete,
      // t=50ms: drain P0 — the migration re-runs admission on the new
      // placement, the reservation moves, then the changeset commits
      sim::TraceKind::kAdmissionTest, sim::TraceKind::kTaskMigrated,
      sim::TraceKind::kReconfigApplied,
      // job 1: immediate release on the migrated placement (P1)
      sim::TraceKind::kJobArrival, sim::TraceKind::kJobReleased,
      sim::TraceKind::kSubjobComplete, sim::TraceKind::kJobComplete,
      // t=150ms: deferred passivation of P0's instances
      sim::TraceKind::kNodeQuiesced,
  };
  EXPECT_EQ(kinds, expected);
}

}  // namespace
}  // namespace rtcm
