#include "config/plan_builder.h"

#include <algorithm>
#include <set>

#include "core/admission_control.h"
#include "core/idle_resetter.h"
#include "core/load_balancer_component.h"
#include "core/subtask_component.h"
#include "core/task_effector.h"
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
    input.analysis = "DS";
    input.ds_budget = config.ds_server.budget;
    input.ds_period = config.ds_server.period;
    input.ds_hop_overhead = config.ds_server.hop_overhead.is_zero()
                                ? config.comm_latency
                                : config.ds_server.hop_overhead;
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
  if (input.analysis != "AUB" && input.analysis != "DS") {
    return R::error("analysis must be 'AUB' or 'DS', got '" + input.analysis +
                    "'");
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
  {
    dance::InstanceDeployment lb;
    lb.id = "Central-LB";
    lb.type = core::LoadBalancerComponent::kTypeName;
    lb.node = input.task_manager;
    lb.properties.set_string(core::LoadBalancerComponent::kPolicyAttr,
                             input.lb_policy);
    lb.properties.set_int(core::LoadBalancerComponent::kSeedAttr,
                          static_cast<std::int64_t>(input.lb_seed));
    plan.instances.push_back(std::move(lb));

    dance::InstanceDeployment ac;
    ac.id = "Central-AC";
    ac.type = core::AdmissionControl::kTypeName;
    ac.node = input.task_manager;
    ac.properties.set_string(core::AdmissionControl::kAcStrategyAttr,
                             core::to_attr(input.strategies.ac));
    ac.properties.set_string(core::AdmissionControl::kLbStrategyAttr,
                             core::to_attr(input.strategies.lb));
    if (input.analysis == "DS") {
      ac.properties.set_string(core::AdmissionControl::kAnalysisAttr, "DS");
      ac.properties.set_duration(core::AdmissionControl::kDsBudgetAttr,
                                 input.ds_budget);
      ac.properties.set_duration(core::AdmissionControl::kDsPeriodAttr,
                                 input.ds_period);
      ac.properties.set_duration(core::AdmissionControl::kDsHopOverheadAttr,
                                 input.ds_hop_overhead);
    }
    plan.instances.push_back(std::move(ac));

    plan.connections.push_back(dance::ConnectionDeployment{
        "ac-location", "Central-AC", std::string(core::kLocationPort),
        "Central-LB", std::string(core::kLocationPort)});
  }

  // Per application processor: TE + IR.
  const std::string te_mode = core::te_mode_attr(input.strategies);
  const std::string ir_value = core::to_attr(input.strategies.ir);
  for (const ProcessorId p : app_processors) {
    dance::InstanceDeployment te;
    te.id = "TE@" + p.to_string();
    te.type = core::TaskEffector::kTypeName;
    te.node = p;
    te.properties.set_string(core::TaskEffector::kModeAttr, te_mode);
    te.properties.set_int("ProcessorID", p.value());
    plan.instances.push_back(std::move(te));

    dance::InstanceDeployment ir;
    ir.id = "IR@" + p.to_string();
    ir.type = core::IdleResetter::kTypeName;
    ir.node = p;
    ir.properties.set_string(core::IdleResetter::kStrategyAttr, ir_value);
    ir.properties.set_int("ProcessorID", p.value());
    plan.instances.push_back(std::move(ir));
  }

  // Subtask instances with EDMS priorities.  Execution-drained processors
  // host no Subtask instances; a stage losing every host is a plan error.
  const std::set<ProcessorId> drained(input.drained.begin(),
                                      input.drained.end());
  const auto priorities = sched::assign_edms_priorities(tasks);
  for (const sched::TaskSpec& task : tasks.tasks()) {
    const Priority priority = priorities.at(task.id);
    for (std::size_t j = 0; j < task.subtasks.size(); ++j) {
      const sched::SubtaskSpec& st = task.subtasks[j];
      const bool last = (j + 1 == task.subtasks.size());
      const std::vector<ProcessorId> candidates = st.candidates();
      const auto is_drained = [&drained](ProcessorId host) {
        return drained.count(host) > 0;
      };
      if (std::all_of(candidates.begin(), candidates.end(), is_drained)) {
        return R::error(strfmt(
            "draining leaves stage %zu of task %d without any host", j,
            task.id.value()));
      }
      for (const ProcessorId host : candidates) {
        if (is_drained(host)) continue;
        dance::InstanceDeployment inst;
        inst.id = strfmt("T%d_S%zu@P%d", task.id.value(), j, host.value());
        inst.type = last ? core::LastSubtask::kTypeName
                         : core::FirstIntermediateSubtask::kTypeName;
        inst.node = host;
        inst.properties.set_int(core::SubtaskComponentBase::kTaskAttr,
                                task.id.value());
        inst.properties.set_int(core::SubtaskComponentBase::kStageAttr,
                                static_cast<std::int64_t>(j));
        inst.properties.set_duration(core::SubtaskComponentBase::kExecutionAttr,
                                     st.execution);
        inst.properties.set_int(core::SubtaskComponentBase::kPriorityAttr,
                                priority.level());
        inst.properties.set_string(core::SubtaskComponentBase::kIrModeAttr,
                                   ir_value);
        plan.connections.push_back(dance::ConnectionDeployment{
            inst.id + "-complete", inst.id, std::string(core::kCompletePort),
            "IR@" + host.to_string(), std::string(core::kCompletePort)});
        plan.instances.push_back(std::move(inst));
      }
    }
  }

  return plan;
}

}  // namespace rtcm::config
