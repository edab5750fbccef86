#include "reconfig/manager.h"

#include <cassert>
#include <utility>

#include "ccm/container.h"
#include "dance/engine.h"
#include "dance/plan_xml.h"
#include "util/strings.h"

namespace rtcm::reconfig {

ReconfigurationManager::ReconfigurationManager(core::SystemRuntime& runtime)
    : runtime_(runtime),
      input_(config::plan_input(runtime.config(), runtime.tasks(),
                                runtime.task_manager())),
      current_(runtime.plan()) {
  assert(runtime_.assembled() &&
         "ReconfigurationManager needs an assembled runtime");
  // Start from the nodes the launched plan drained (the AC adopted them).
  drained_ = runtime_.admission_control()->drained();
  input_.label = "live";
  sync_from(current_);
}

Status ReconfigurationManager::schedule(const config::ModeChange& change) {
  if (change.at < runtime_.simulator().now()) {
    return Status::error("cannot schedule a mode change in the past");
  }
  runtime_.simulator().schedule_at(
      change.at, [this, change] { (void)apply_now(change); });
  return Status::ok();
}

Status ReconfigurationManager::schedule_script(
    const std::vector<config::ModeChange>& script) {
  for (const config::ModeChange& change : script) {
    if (Status s = schedule(change); !s.is_ok()) return s;
  }
  return Status::ok();
}

Status ReconfigurationManager::schedule_plan(Time at,
                                             dance::DeploymentPlan target,
                                             std::string label) {
  if (at < runtime_.simulator().now()) {
    return Status::error("cannot schedule a reconfiguration in the past");
  }
  runtime_.simulator().schedule_at(
      at, [this, target = std::move(target), label = std::move(label)] {
        (void)apply_plan_now(target, label);
      });
  return Status::ok();
}

Status ReconfigurationManager::schedule_xml(Time at, const std::string& xml,
                                            std::string label) {
  auto plan = dance::plan_from_xml(xml);
  if (!plan.is_ok()) return Status::error(plan.message());
  return schedule_plan(at, std::move(plan).value(), std::move(label));
}

ReconfigReport ReconfigurationManager::rejected(ReconfigReport report,
                                                std::string reason) {
  report.applied = false;
  report.error = std::move(reason);
  ++rejected_;
  runtime_.trace().record({runtime_.simulator().now(),
                           sim::TraceKind::kReconfigRejected,
                           runtime_.task_manager(), TaskId(), JobId(),
                           report.label + ": " + report.error});
  history_.push_back(report);
  return report;
}

ReconfigReport ReconfigurationManager::apply_now(
    const config::ModeChange& change) {
  ReconfigReport report;
  report.at = runtime_.simulator().now();
  report.quiesce_at = report.at;
  report.label = change.label.empty() ? "mode-change" : change.label;
  config::PlanBuilderInput next = input_;
  if (change.strategies.has_value()) {
    if (!change.strategies->valid()) {
      return rejected(std::move(report),
                      "invalid service configuration " +
                          change.strategies->label() + ": " +
                          change.strategies->invalid_reason());
    }
    next.strategies = *change.strategies;
  }
  if (change.lb_policy.has_value()) next.lb_policy = *change.lb_policy;
  std::set<ProcessorId> desired = drained_;
  for (const ProcessorId p : change.drain) desired.insert(p);
  for (const ProcessorId p : change.undrain) desired.erase(p);
  next.drained.assign(desired.begin(), desired.end());

  auto target = config::build_deployment_plan(next);
  if (!target.is_ok()) return rejected(std::move(report), target.message());
  return apply_plan_now(target.value(), report.label);
}

ReconfigReport ReconfigurationManager::apply_plan_now(
    const dance::DeploymentPlan& target, const std::string& label) {
  ReconfigReport report;
  report.at = runtime_.simulator().now();
  report.quiesce_at = report.at;
  report.label = label.empty() ? (target.label.empty() ? "reconfig"
                                                       : target.label)
                               : label;

  auto diffed = PlanDiffer::diff(current_, target);
  if (!diffed.is_ok()) return rejected(std::move(report), diffed.message());
  const Changeset& changes = diffed.value();
  if (changes.empty()) {
    report.applied = true;
    ++applied_;
    history_.push_back(report);
    return report;
  }

  // --- Phase A: classification and pre-flight validation (no mutation) ----
  std::vector<const Change*> reconfigures;
  std::vector<const Change*> adds;
  std::vector<const Change*> connections;
  std::map<ProcessorId, std::vector<ccm::InstanceId>> removals_by_node;
  // Pre-pass: the canonical order lists connection removals before instance
  // removals, but validating the former needs the full removed-id set.
  std::set<ccm::InstanceId> removed_ids;
  for (const Change& change : changes.changes) {
    if (change.kind == ChangeKind::kRemoveInstance) {
      removed_ids.insert(change.instance.id);
    }
  }
  for (const Change& change : changes.changes) {
    const ccm::InstanceId& id = change.instance.id;
    switch (change.kind) {
      case ChangeKind::kRemoveInstance:
        if (!ccm::is_subtask(id.kind)) {
          return rejected(std::move(report),
                          "unsupported: removing infrastructure instance '" +
                              id.to_string() + "'");
        }
        removals_by_node[id.node].push_back(id);
        break;
      case ChangeKind::kReconfigureInstance:
        if (runtime_.find(id) == nullptr) {
          return rejected(std::move(report),
                          "reconfigure target '" + id.to_string() +
                              "' is not installed on " + id.node.to_string());
        }
        reconfigures.push_back(&change);
        break;
      case ChangeKind::kAddInstance:
        if (runtime_.find_container(id.node) == nullptr) {
          return rejected(std::move(report),
                          "add target node " + id.node.to_string() +
                              " has no container");
        }
        adds.push_back(&change);
        break;
      case ChangeKind::kRemoveConnection:
        // No physical disconnect exists; a removed connection is legal only
        // when its source instance leaves with it (quiesced instances stop
        // calling their receptacles).
        if (removed_ids.count(change.connection.source) == 0) {
          return rejected(std::move(report),
                          "unsupported: removing connection '" +
                              change.connection.name() +
                              "' while its source instance stays");
        }
        break;
      case ChangeKind::kRewireConnection:
      case ChangeKind::kAddConnection:
        connections.push_back(&change);
        break;
    }
  }
  // Only whole-node drains keep the guarantee story airtight: if any
  // Subtask instance is removed from a node, the target must host none
  // there, so placements can treat the node as uniformly dead.
  for (const auto& [node, ids] : removals_by_node) {
    for (const auto& inst : target.instances) {
      if (inst.id.node == node && ccm::is_subtask(inst.id.kind)) {
        return rejected(std::move(report),
                        "unsupported: partial drain of " + node.to_string() +
                            " (instance '" + inst.id.to_string() + "' stays)");
      }
    }
  }

  std::set<ProcessorId> desired = drained_;
  for (const auto& [node, ids] : removals_by_node) desired.insert(node);
  for (const Change* change : adds) {
    if (ccm::is_subtask(change->instance.id.kind)) {
      desired.erase(change->instance.id.node);
    }
  }

  // --- Phase B: live reconfigurations (undo log: the previous configs) ----
  std::vector<const dance::InstanceDeployment*> applied_configs;
  auto undo_configs = [this, &applied_configs] {
    for (auto it = applied_configs.rbegin(); it != applied_configs.rend();
         ++it) {
      const Status s = runtime_.reconfigure_instance((*it)->id, (*it)->config);
      assert(s.is_ok() && "restoring a previously-valid config must work");
      (void)s;
    }
  };
  for (const Change* change : reconfigures) {
    const dance::InstanceDeployment* previous =
        current_.find_instance(change->instance.id);
    assert(previous != nullptr);  // diff produced it from current_
    if (Status s = runtime_.reconfigure_instance(change->instance.id,
                                                 change->instance.config);
        !s.is_ok()) {
      undo_configs();
      return rejected(std::move(report), s.message());
    }
    applied_configs.push_back(previous);
    ++report.reconfigured;
  }

  // --- Phase C: guarantee-preserving drain transition (atomic in the AC) --
  core::AdmissionControl* ac = runtime_.admission_control();
  core::AdmissionControl::TransitionSummary summary;
  if (desired != drained_) {
    auto transition = ac->apply_drain(desired);
    if (!transition.is_ok()) {
      undo_configs();
      return rejected(std::move(report), transition.message());
    }
    summary = std::move(transition).value();
  }
  report.migrated_tasks = summary.migrated.size();
  for (const auto& migration : summary.migrated) {
    if (core::TaskEffector* te = runtime_.arrival_effector(migration.task)) {
      te->rebind_admitted_placement(migration.task, migration.to);
    }
  }

  // --- Phase D: build-up (pre-validated; cannot fail for engine plans) ----
  //
  // Should a hand-built target still fail here, restore the earlier phases
  // best-effort: configs exactly, and the drain transition by moving the AC
  // back to the previous drained set (placements stay admissible, though a
  // reservation migrated in Phase C may settle on a different live host
  // than it started on).
  auto abort_build_up = [&](std::string reason) {
    undo_configs();
    if (desired != drained_) {
      auto restore = ac->apply_drain(drained_);
      if (restore.is_ok()) {
        for (const auto& migration : restore.value().migrated) {
          if (core::TaskEffector* te =
                  runtime_.arrival_effector(migration.task)) {
            te->rebind_admitted_placement(migration.task, migration.to);
          }
        }
      }
    }
    return rejected(std::move(report), std::move(reason));
  };
  for (const Change* change : adds) {
    ccm::Component* component = runtime_.find(change->instance.id);
    Status s = Status::ok();
    if (component != nullptr) {
      // Reactivation of a quiesced instance: refresh its config, reactivate.
      s = component->configure(change->instance.config);
      if (s.is_ok() &&
          component->state() == ccm::LifecycleState::kPassivated) {
        s = component->activate();
      }
    } else {
      auto installed = runtime_.install(change->instance);
      s = installed.is_ok() ? installed.value()->activate()
                            : Status::error(installed.message());
    }
    if (!s.is_ok()) return abort_build_up(s.message());
    ++report.added;
  }
  for (const Change* change : connections) {
    if (Status s = dance::ExecutionManager::wire_connection(change->connection,
                                                            runtime_);
        !s.is_ok()) {
      return abort_build_up(s.message());
    }
    ++report.rewired;
  }

  // Deferred quiesce: removed instances stay live until every job that
  // could still reach them has met its deadline.
  if (!removals_by_node.empty()) {
    std::set<ProcessorId> removal_nodes;
    for (const auto& [node, ids] : removals_by_node) {
      removal_nodes.insert(node);
    }
    const Time horizon = ac->quiesce_horizon(removal_nodes);
    report.quiesce_at = horizon;
    for (auto& [node, ids] : removals_by_node) {
      const std::uint64_t generation = ++node_generation_[node];
      report.removed += ids.size();
      runtime_.simulator().schedule_at(
          horizon,
          [this, node = node, generation, ids = std::move(ids)] {
            const auto it = node_generation_.find(node);
            if (it == node_generation_.end() || it->second != generation ||
                drained_.count(node) == 0) {
              return;  // the node was undrained (or re-drained) meanwhile
            }
            quiesce_node(node, ids);
          });
    }
  }
  // An undrained node bumps its generation so any pending passivation for
  // an older drain is cancelled even if the node is later drained again.
  for (const Change* change : adds) {
    const ccm::InstanceId& id = change->instance.id;
    if (ccm::is_subtask(id.kind) && drained_.count(id.node) > 0 &&
        desired.count(id.node) == 0) {
      ++node_generation_[id.node];
    }
  }

  // --- Commit -------------------------------------------------------------
  current_ = target;
  drained_ = std::move(desired);
  sync_from(current_);
  ++applied_;
  report.applied = true;
  runtime_.trace().record(
      {runtime_.simulator().now(), sim::TraceKind::kReconfigApplied,
       runtime_.task_manager(), TaskId(), JobId(),
       strfmt("%s: %zu reconfigured, %zu added, %zu removed, %zu rewired, "
              "%zu migrated",
              report.label.c_str(), report.reconfigured, report.added,
              report.removed, report.rewired, report.migrated_tasks)});
  history_.push_back(report);
  return report;
}

void ReconfigurationManager::quiesce_node(
    ProcessorId node, const std::vector<ccm::InstanceId>& ids) {
  ccm::Container* container = runtime_.find_container(node);
  assert(container != nullptr);
  std::size_t passivated = 0;
  for (const ccm::InstanceId& id : ids) {
    ccm::Component* component = container->find(id);
    if (component != nullptr &&
        component->state() == ccm::LifecycleState::kActive) {
      const Status s = component->passivate();
      assert(s.is_ok());
      (void)s;
      ++passivated;
    }
  }
  runtime_.trace().record(
      {runtime_.simulator().now(), sim::TraceKind::kNodeQuiesced, node,
       TaskId(), JobId(),
       strfmt("%zu instances passivated", passivated)});
}

void ReconfigurationManager::sync_from(const dance::DeploymentPlan& target) {
  core::StrategyCombination strategies = input_.strategies;
  bool ir_seen = false;
  for (const dance::InstanceDeployment& inst : target.instances) {
    if (const auto* ac = std::get_if<ccm::AcConfig>(&inst.config)) {
      strategies.ac = ac->ac;
      strategies.lb = ac->lb;
    } else if (const auto* ir = std::get_if<ccm::IrConfig>(&inst.config);
               ir != nullptr && !ir_seen) {
      strategies.ir = ir->strategy;
      ir_seen = true;
    } else if (const auto* lb = std::get_if<ccm::LbConfig>(&inst.config)) {
      input_.lb_policy = sched::to_string(lb->policy);
    }
  }
  input_.strategies = strategies;
  runtime_.note_active_strategies(strategies, input_.lb_policy);
  input_.drained.assign(drained_.begin(), drained_.end());
}

}  // namespace rtcm::reconfig
