// Deployment-plan synthesis from a workload and a strategy selection.
//
// The one description of a deployment's topology: Central-LB and Central-AC
// on the task manager node, one TE and IR per application processor, and
// F/I / Last Subtask instances on every primary and replica processor — with
// EDMS priorities written into the subtask instances' configs exactly as the
// paper's front-end configuration engine writes them into the XML plan.
// SystemRuntime::assemble() launches this plan for its own SystemConfig; the
// configuration engine and the reconfiguration manager derive theirs from
// the same builder.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "core/strategies.h"
#include "dance/deployment_plan.h"
#include "sched/task.h"
#include "util/result.h"
#include "util/time.h"

namespace rtcm::config {

struct PlanBuilderInput {
  const sched::TaskSet* tasks = nullptr;
  core::StrategyCombination strategies{};
  ProcessorId task_manager;
  std::string lb_policy = "lowest-util";
  std::uint64_t lb_seed = 1;
  std::string label = "rtcm-deployment";
  /// Aperiodic analysis configured on the Central-AC, with the DS server
  /// parameters it uses under deferrable-server analysis.
  core::AperiodicAnalysis analysis = core::AperiodicAnalysis::kAub;
  sched::DsServerConfig ds;
  /// Execution-drained processors: no Subtask instance is deployed on them
  /// (their TE/IR stay, so arrivals still land there and migrate away).  An
  /// error is returned if draining leaves some stage without any host.
  std::vector<ProcessorId> drained;
};

/// The builder input describing `config`'s deployment of `tasks` with the
/// task manager on `task_manager`.  A zero DS hop overhead budgets one
/// comm_latency per middleware hop (the measured one-way event delay).
[[nodiscard]] PlanBuilderInput plan_input(const core::SystemConfig& config,
                                          const sched::TaskSet& tasks,
                                          ProcessorId task_manager);

/// The plan is structurally valid by construction; ExecutionManager::launch
/// validates plans from any other source.
[[nodiscard]] Result<dance::DeploymentPlan> build_deployment_plan(
    const PlanBuilderInput& input);

/// One step of a mode-change schedule: at virtual time `at`, mutate the
/// deployment this way.  Unset fields keep their current value.  This is the
/// currency of the whole reconfiguration pipeline — the configuration engine
/// folds a list of these into a plan *sequence*, and the runtime
/// ReconfigurationManager (src/reconfig) applies them live via plan diffs.
struct ModeChange {
  Time at;
  std::string label;
  /// Swap the service-strategy combination (must be valid).
  std::optional<core::StrategyCombination> strategies;
  /// Swap the load balancer's placement policy attribute.
  std::optional<std::string> lb_policy;
  /// Processors to add to / remove from the execution-drained set.
  std::vector<ProcessorId> drain;
  std::vector<ProcessorId> undrain;
};

}  // namespace rtcm::config
