// Online reconfiguration engine: applies deployment-plan diffs to a *live*
// SystemRuntime at a requested virtual time, preserving every admitted
// task's deadline guarantee across the transition.
//
// Protocol for one reconfiguration (all inside a single simulator event, so
// no observer ever sees a half-applied transition):
//
//   1. Diff the current plan against the target (PlanDiffer).
//   2. Validate: only whole-node drains of Subtask instances are supported
//      (infrastructure components never move), and every touched container
//      must exist.
//   3. Apply config reconfigurations (strategy / policy swaps) to live
//      components, keeping the previous configs as an undo log: rollback
//      re-applies them whole, so it is exact.
//   4. Ask the AdmissionControl to transition to the new drained set: every
//      standing reservation touching a drained processor is re-placed and
//      re-admitted under Equation (1).  The AC rolls itself back atomically
//      if any admitted task would lose its guarantee, in which case the
//      config changes from step 3 are also undone and the whole
//      reconfiguration is rejected.
//   5. Rebind task-effector placement caches for migrated reservations,
//      install/reactivate added instances, and wire added connections.
//   6. Schedule *deferred* passivation of removed instances at the quiesce
//      horizon: the latest deadline any in-flight job touching the drained
//      nodes can still be running at.  New work avoids the nodes
//      immediately; existing work finishes in place (quiescence).
//
// In-flight jobs are never migrated: their Trigger payloads carry the full
// placement, so they complete on their admitted processors by their
// deadlines regardless of later mode changes.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "config/plan_builder.h"
#include "core/runtime.h"
#include "dance/deployment_plan.h"
#include "reconfig/plan_diff.h"

namespace rtcm::reconfig {

/// Outcome of one reconfiguration request.
struct ReconfigReport {
  Time at;            ///< Virtual time the request was applied/rejected.
  std::string label;
  bool applied = false;
  std::string error;  ///< Rejection reason when !applied.
  std::size_t reconfigured = 0;    ///< Live attribute reconfigurations.
  std::size_t added = 0;           ///< Instances installed or reactivated.
  std::size_t removed = 0;         ///< Instances scheduled for quiesce.
  std::size_t rewired = 0;         ///< Connections rewired or added.
  std::size_t migrated_tasks = 0;  ///< Standing reservations re-placed.
  /// When the deferred passivation of removed instances fires; == at when
  /// nothing was removed.
  Time quiesce_at;
};

class ReconfigurationManager {
 public:
  /// The runtime must be assembled.  The baseline is the plan the runtime
  /// launched; mode changes rebuild targets from config::plan_input of the
  /// runtime's configuration, synced to that plan's strategies and policy.
  explicit ReconfigurationManager(core::SystemRuntime& runtime);

  [[nodiscard]] const dance::DeploymentPlan& current_plan() const {
    return current_;
  }
  [[nodiscard]] const std::set<ProcessorId>& drained() const {
    return drained_;
  }
  [[nodiscard]] const std::vector<ReconfigReport>& history() const {
    return history_;
  }
  [[nodiscard]] std::uint64_t applied_count() const { return applied_; }
  [[nodiscard]] std::uint64_t rejected_count() const { return rejected_; }

  // --- Scheduling (mode changes applied at a virtual time) -----------------

  /// Schedule one mode change at change.at (must be >= now).
  [[nodiscard]] Status schedule(const config::ModeChange& change);
  /// Schedule a whole script; stops at the first unschedulable entry.
  [[nodiscard]] Status schedule_script(
      const std::vector<config::ModeChange>& script);
  /// Schedule switching to an explicit target plan (e.g. one step of the
  /// configuration engine's plan sequence).
  [[nodiscard]] Status schedule_plan(Time at, dance::DeploymentPlan target,
                                     std::string label = "");
  /// Same, from a serialized XML plan (dance/plan_xml.h).
  [[nodiscard]] Status schedule_xml(Time at, const std::string& xml,
                                    std::string label = "");

  // --- Immediate application (at the current virtual time) -----------------

  /// Apply a mode change now.  Rejections are a normal outcome: the report
  /// carries applied=false and the reason, and the system is untouched.
  ReconfigReport apply_now(const config::ModeChange& change);
  /// Apply an explicit target plan now.
  ReconfigReport apply_plan_now(const dance::DeploymentPlan& target,
                                const std::string& label = "");

 private:
  ReconfigReport rejected(ReconfigReport report, std::string reason);
  void quiesce_node(ProcessorId node, const std::vector<ccm::InstanceId>& ids);
  /// Mirror the target plan's strategies and LB policy into the runtime
  /// config and the internal PlanBuilderInput.
  void sync_from(const dance::DeploymentPlan& target);

  core::SystemRuntime& runtime_;
  /// Rebuildable description of the live deployment; mode changes mutate a
  /// copy of this and re-emit a full target plan.
  config::PlanBuilderInput input_;
  dance::DeploymentPlan current_;
  std::set<ProcessorId> drained_;
  /// Bumped on every drain/undrain of a node so a deferred passivation can
  /// tell whether it is still current (an undrain cancels it logically).
  std::map<ProcessorId, std::uint64_t> node_generation_;
  std::vector<ReconfigReport> history_;
  std::uint64_t applied_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace rtcm::reconfig
