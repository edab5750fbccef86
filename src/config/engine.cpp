#include "config/engine.h"

#include <algorithm>
#include <set>

#include "config/workload_spec.h"
#include "dance/plan_xml.h"
#include "sched/edms.h"
#include "util/strings.h"

namespace rtcm::config {

Result<EngineOutput> ConfigurationEngine::configure(
    const EngineInput& input) const {
  using R = Result<EngineOutput>;
  EngineOutput out;

  auto tasks = parse_workload_spec(input.workload_spec);
  if (!tasks.is_ok()) {
    return R::error("workload spec: " + tasks.message());
  }
  out.tasks = std::move(tasks).value();

  if (input.explicit_strategies.has_value()) {
    // A developer may request an explicit combination, but the engine must
    // detect and disallow contradictory configurations (paper §6).
    if (!input.explicit_strategies->valid()) {
      return R::error("invalid service configuration " +
                      input.explicit_strategies->label() + ": " +
                      input.explicit_strategies->invalid_reason());
    }
    out.selection.strategies = *input.explicit_strategies;
  } else {
    out.selection = core::select_strategies(to_characteristics(input.answers));
  }

  std::int32_t max_id = 0;
  for (const ProcessorId p : out.tasks.processors()) {
    max_id = std::max(max_id, p.value());
  }
  out.task_manager = input.task_manager.value_or(ProcessorId(max_id + 1));

  PlanBuilderInput plan_input;
  plan_input.tasks = &out.tasks;
  plan_input.strategies = out.selection.strategies;
  plan_input.task_manager = out.task_manager;
  plan_input.lb_policy = input.lb_policy;
  out.lb_policy = input.lb_policy;
  plan_input.label = input.label;
  auto plan = build_deployment_plan(plan_input);
  if (!plan.is_ok()) return R::error(plan.message());
  out.plan = std::move(plan).value();
  out.xml = dance::plan_to_xml(out.plan);
  out.priorities = sched::assign_edms_priorities(out.tasks);

  // Fold the mode-change schedule into a plan sequence: each step mutates
  // the accumulated PlanBuilderInput and emits a full target plan, so a bad
  // step is refused here — before anything is deployed.
  std::vector<ModeChange> schedule = input.mode_changes;
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ModeChange& a, const ModeChange& b) {
                     return a.at < b.at;
                   });
  std::set<ProcessorId> drained;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ModeChange& change = schedule[i];
    const std::string label = change.label.empty()
                                  ? strfmt("mode-change-%zu", i + 1)
                                  : change.label;
    if (change.strategies.has_value()) {
      if (!change.strategies->valid()) {
        return R::error("mode change '" + label +
                        "': invalid service configuration " +
                        change.strategies->label() + ": " +
                        change.strategies->invalid_reason());
      }
      plan_input.strategies = *change.strategies;
    }
    if (change.lb_policy.has_value()) plan_input.lb_policy = *change.lb_policy;
    for (const ProcessorId p : change.drain) drained.insert(p);
    for (const ProcessorId p : change.undrain) drained.erase(p);
    plan_input.drained.assign(drained.begin(), drained.end());
    plan_input.label = input.label + "/" + label;
    auto step = build_deployment_plan(plan_input);
    if (!step.is_ok()) {
      return R::error("mode change '" + label + "': " + step.message());
    }
    TimedPlan timed;
    timed.at = change.at;
    timed.label = label;
    timed.plan = std::move(step).value();
    timed.xml = dance::plan_to_xml(timed.plan);
    out.schedule.push_back(std::move(timed));
  }
  return out;
}

Result<std::unique_ptr<core::SystemRuntime>> ConfigurationEngine::launch(
    const EngineOutput& output, core::SystemConfig base) {
  using R = Result<std::unique_ptr<core::SystemRuntime>>;
  base.strategies = output.selection.strategies;
  base.task_manager = output.task_manager;
  base.lb_policy = output.lb_policy;
  auto runtime =
      std::make_unique<core::SystemRuntime>(std::move(base), output.tasks);
  if (Status s = runtime->assemble(output.plan); !s.is_ok()) {
    return R::error(s.message());
  }
  return runtime;
}

}  // namespace rtcm::config
