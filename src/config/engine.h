// Front-end configuration engine (paper §6, Figure 4).
//
// Ties the pieces together: parse the developer's workload specification,
// map the questionnaire answers to service strategies (Table 1), refuse
// invalid explicit combinations, assign EDMS priorities, and emit the
// XML-based deployment plan DAnCE launches.  `launch()` then assembles a
// fresh SystemRuntime from the plan: deploy components on each node ->
// set_configuration -> wire ports -> activate.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/plan_builder.h"
#include "config/questionnaire.h"
#include "core/criteria.h"
#include "core/runtime.h"
#include "dance/deployment_plan.h"
#include "sched/task.h"

namespace rtcm::config {

struct EngineInput {
  /// Workload specification text (see workload_spec.h).
  std::string workload_spec;
  /// Developer's answers to the four questions.
  Answers answers;
  /// Bypass the questionnaire with an explicit combination; the engine
  /// still refuses invalid ones (its key safety feature).
  std::optional<core::StrategyCombination> explicit_strategies;
  std::optional<ProcessorId> task_manager;
  std::string label = "rtcm-deployment";
  std::string lb_policy = "lowest-util";
  /// Mode-change schedule: timed plan mutations ("at t=5s switch the LB
  /// strategy; at t=12s drain node 2") folded, in time order, into the plan
  /// sequence of EngineOutput::schedule.  Invalid steps (bad combination,
  /// drain leaving a stage hostless) fail configure() up front — the same
  /// refuse-early guarantee the engine gives the initial plan.
  std::vector<ModeChange> mode_changes;
};

/// One step of the emitted plan sequence: deploy `plan` at virtual time
/// `at` (the initial plan is separate, in EngineOutput::plan).
struct TimedPlan {
  Time at;
  std::string label;
  dance::DeploymentPlan plan;
  std::string xml;
};

struct EngineOutput {
  sched::TaskSet tasks;
  core::StrategySelection selection;
  ProcessorId task_manager;
  /// The LB placement policy the plan deploys.
  std::string lb_policy;
  dance::DeploymentPlan plan;
  std::string xml;
  std::unordered_map<TaskId, Priority> priorities;
  /// Target plans for each mode change, in schedule order.
  std::vector<TimedPlan> schedule;
};

class ConfigurationEngine {
 public:
  [[nodiscard]] Result<EngineOutput> configure(const EngineInput& input) const;

  /// Build a runtime and assemble it from the output's plan.  `base`
  /// supplies the simulation parameters (latency, tracing); its
  /// strategies, task_manager and lb_policy are overwritten from the
  /// output, so the runtime's config() describes the launched plan.
  [[nodiscard]] static Result<std::unique_ptr<core::SystemRuntime>> launch(
      const EngineOutput& output, core::SystemConfig base);
};

}  // namespace rtcm::config
