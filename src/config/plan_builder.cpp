#include "config/plan_builder.h"

#include <algorithm>

#include "sched/edms.h"
#include "util/strings.h"

namespace rtcm::config {

PlanBuilderInput plan_input(const core::SystemConfig& config,
                            const sched::TaskSet& tasks,
                            ProcessorId task_manager) {
  PlanBuilderInput input;
  input.tasks = &tasks;
  input.strategies = config.strategies;
  input.task_manager = task_manager;
  input.lb_policy = config.lb_policy;
  input.lb_seed = config.lb_seed;
  if (config.analysis == core::AperiodicAnalysis::kDeferrableServer) {
    input.analysis = config.analysis;
    input.ds = config.ds_server;
    if (input.ds.hop_overhead.is_zero()) {
      input.ds.hop_overhead = config.comm_latency;
    }
  }
  return input;
}

Result<dance::DeploymentPlan> build_deployment_plan(
    const PlanBuilderInput& input) {
  using R = Result<dance::DeploymentPlan>;
  if (input.tasks == nullptr || input.tasks->empty()) {
    return R::error("plan builder needs a non-empty task set");
  }
  if (!input.strategies.valid()) {
    return R::error("invalid strategy combination " +
                    input.strategies.label() + ": " +
                    input.strategies.invalid_reason());
  }
  const auto policy = sched::parse_placement_policy(input.lb_policy);
  if (!policy.is_ok()) {
    return R::error("LB policy " + policy.message());
  }
  const sched::TaskSet& tasks = *input.tasks;
  const auto app_processors = tasks.processors();
  if (std::find(app_processors.begin(), app_processors.end(),
                input.task_manager) != app_processors.end()) {
    return R::error("task manager " + input.task_manager.to_string() +
                    " collides with an application processor");
  }

  dance::DeploymentPlan plan;
  plan.label = input.label;
  std::size_t subtask_hosts = 0;
  for (const sched::TaskSpec& task : tasks.tasks()) {
    for (const sched::SubtaskSpec& st : task.subtasks) {
      subtask_hosts += 1 + st.replicas.size();
    }
  }
  plan.instances.reserve(2 + 2 * app_processors.size() + subtask_hosts);
  plan.connections.reserve(1 + subtask_hosts);

  // Central task manager: LB then AC.
  const ccm::InstanceId lb{ccm::ComponentKind::kLoadBalancer,
                           input.task_manager};
  const ccm::InstanceId ac{ccm::ComponentKind::kAdmissionControl,
                           input.task_manager};
  plan.instances.push_back({lb, ccm::LbConfig{policy.value(), input.lb_seed}});
  plan.instances.push_back(
      {ac, ccm::AcConfig{input.strategies.ac, input.strategies.lb,
                         input.analysis, input.ds}});
  plan.connections.push_back({ac, ccm::Port::kLocation, lb});

  // Per application processor: TE + IR.
  const ccm::TeConfig te{core::te_mode(input.strategies)};
  const ccm::IrConfig ir{input.strategies.ir};
  for (const ProcessorId p : app_processors) {
    plan.instances.push_back({{ccm::ComponentKind::kTaskEffector, p}, te});
    plan.instances.push_back({{ccm::ComponentKind::kIdleResetter, p}, ir});
  }

  // Subtask instances with EDMS priorities.  Execution-drained processors
  // host no Subtask instances; a stage losing every host is a plan error.
  const auto is_drained = [&input](ProcessorId host) {
    return std::find(input.drained.begin(), input.drained.end(), host) !=
           input.drained.end();
  };
  const auto priorities = sched::assign_edms_priorities(tasks);
  for (const sched::TaskSpec& task : tasks.tasks()) {
    const Priority priority = priorities.at(task.id);
    for (std::size_t j = 0; j < task.subtasks.size(); ++j) {
      const sched::SubtaskSpec& st = task.subtasks[j];
      const bool last = (j + 1 == task.subtasks.size());
      const ccm::SubtaskConfig config{st.execution, priority,
                                      input.strategies.ir};
      bool hosted = false;
      const auto deploy = [&](ProcessorId host) {
        if (is_drained(host)) return;
        hosted = true;
        const ccm::InstanceId id{last ? ccm::ComponentKind::kSubtaskLast
                                      : ccm::ComponentKind::kSubtaskFI,
                                 host, task.id,
                                 static_cast<std::uint32_t>(j)};
        plan.connections.push_back(
            {id, ccm::Port::kComplete,
             ccm::InstanceId{ccm::ComponentKind::kIdleResetter, host}});
        plan.instances.push_back({id, config});
      };
      deploy(st.primary);
      for (const ProcessorId replica : st.replicas) deploy(replica);
      if (!hosted) {
        return R::error(strfmt(
            "draining leaves stage %zu of task %d without any host", j,
            task.id.value()));
      }
    }
  }

  return plan;
}

}  // namespace rtcm::config
