#include "reconfig/manager.h"

#include <cassert>
#include <utility>

#include "ccm/container.h"
#include "core/admission_control.h"
#include "core/idle_resetter.h"
#include "core/load_balancer_component.h"
#include "core/subtask_component.h"
#include "core/task_effector.h"
#include "dance/engine.h"
#include "dance/plan_xml.h"
#include "util/strings.h"

namespace rtcm::reconfig {

namespace {

bool is_subtask_type(const std::string& type) {
  return type == core::FirstIntermediateSubtask::kTypeName ||
         type == core::LastSubtask::kTypeName;
}

/// A plan attribute's strategy, or `fallback` when it is absent or
/// malformed (the live component refused such a value at configure time).
template <typename Strategy>
Strategy plan_strategy(Result<Strategy> parsed, Strategy fallback) {
  return parsed.is_ok() ? parsed.value() : fallback;
}

}  // namespace

ReconfigurationManager::ReconfigurationManager(core::SystemRuntime& runtime)
    : runtime_(runtime),
      input_(config::plan_input(runtime.config(), runtime.tasks(),
                                runtime.task_manager())),
      current_(runtime.plan()) {
  assert(runtime_.assembled() &&
         "ReconfigurationManager needs an assembled runtime");
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
  config::PlanBuilderInput next = input_;
  const std::string label =
      change.label.empty() ? "mode-change" : change.label;
  if (change.strategies.has_value()) {
    if (!change.strategies->valid()) {
      ReconfigReport report;
      report.at = runtime_.simulator().now();
      report.quiesce_at = report.at;
      report.label = label;
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
  if (!target.is_ok()) {
    ReconfigReport report;
    report.at = runtime_.simulator().now();
    report.quiesce_at = report.at;
    report.label = label;
    return rejected(std::move(report), target.message());
  }
  return apply_plan_now(target.value(), label);
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
  std::map<ProcessorId, std::vector<std::string>> removals_by_node;
  // Pre-pass: the canonical order lists connection removals before instance
  // removals, but validating the former needs the full removed-id set.
  std::set<std::string> removed_ids;
  for (const Change& change : changes.changes) {
    if (change.kind == ChangeKind::kRemoveInstance) {
      removed_ids.insert(change.instance.id);
    }
  }
  for (const Change& change : changes.changes) {
    switch (change.kind) {
      case ChangeKind::kRemoveInstance:
        if (!is_subtask_type(change.instance.type)) {
          return rejected(std::move(report),
                          "unsupported: removing infrastructure instance '" +
                              change.instance.id + "'");
        }
        removals_by_node[change.instance.node].push_back(change.instance.id);
        break;
      case ChangeKind::kMigrateInstance:
        return rejected(std::move(report),
                        "unsupported: migrating instance '" +
                            change.instance.id +
                            "' between nodes (express task migration as a "
                            "drain; the AC re-places reservations)");
      case ChangeKind::kReconfigureInstance: {
        ccm::Container* container =
            runtime_.find_container(change.instance.node);
        if (container == nullptr ||
            container->find(change.instance.id) == nullptr) {
          return rejected(std::move(report),
                          "reconfigure target '" + change.instance.id +
                              "' is not installed on " +
                              change.instance.node.to_string());
        }
        // configure() merges attribute maps, so rollback (re-applying the
        // old map) is exact only when no brand-new key appears.
        const dance::InstanceDeployment* previous =
            current_.find_instance(change.instance.id);
        assert(previous != nullptr);  // the diff produced it from current_
        for (const std::string& name : change.instance.properties.names()) {
          if (!previous->properties.has(name)) {
            return rejected(std::move(report),
                            "unsupported: reconfigure of '" +
                                change.instance.id +
                                "' introduces attribute '" + name +
                                "' (rollback would not be exact)");
          }
        }
        reconfigures.push_back(&change);
        break;
      }
      case ChangeKind::kAddInstance: {
        ccm::Container* container =
            runtime_.find_container(change.instance.node);
        if (container == nullptr) {
          return rejected(std::move(report),
                          "add target node " +
                              change.instance.node.to_string() +
                              " has no container");
        }
        const ccm::Component* existing = container->find(change.instance.id);
        if (existing != nullptr &&
            existing->type_name() != change.instance.type) {
          return rejected(std::move(report),
                          "instance '" + change.instance.id +
                              "' exists with a different type");
        }
        adds.push_back(&change);
        break;
      }
      case ChangeKind::kRemoveConnection:
        // No physical disconnect exists; a removed connection is legal only
        // when its source instance leaves with it (quiesced instances stop
        // calling their receptacles).
        if (removed_ids.count(change.connection.source_instance) == 0) {
          return rejected(std::move(report),
                          "unsupported: removing connection '" +
                              change.connection.name +
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
      if (inst.node == node && is_subtask_type(inst.type)) {
        return rejected(std::move(report),
                        "unsupported: partial drain of " + node.to_string() +
                            " (instance '" + inst.id + "' stays)");
      }
    }
  }

  std::set<ProcessorId> desired = drained_;
  for (const auto& [node, ids] : removals_by_node) desired.insert(node);
  for (const Change* change : adds) {
    if (is_subtask_type(change->instance.type)) {
      desired.erase(change->instance.node);
    }
  }

  // --- Phase B: live attribute reconfigurations (undo-logged) -------------
  std::vector<std::pair<const Change*, ccm::AttributeMap>> applied_attrs;
  auto undo_attrs = [this, &applied_attrs] {
    for (auto it = applied_attrs.rbegin(); it != applied_attrs.rend(); ++it) {
      const Status s = runtime_.reconfigure_instance(
          it->first->instance.node, it->first->instance.id, it->second);
      assert(s.is_ok() && "restoring previously-valid attributes must work");
      (void)s;
    }
  };
  for (const Change* change : reconfigures) {
    const dance::InstanceDeployment* previous =
        current_.find_instance(change->instance.id);
    assert(previous != nullptr);  // diff produced it from current_
    if (Status s = runtime_.reconfigure_instance(change->instance.node,
                                                 change->instance.id,
                                                 change->instance.properties);
        !s.is_ok()) {
      undo_attrs();
      return rejected(std::move(report), s.message());
    }
    applied_attrs.emplace_back(change, previous->properties);
    ++report.reconfigured;
  }

  // --- Phase C: guarantee-preserving drain transition (atomic in the AC) --
  core::AdmissionControl* ac = runtime_.admission_control();
  core::AdmissionControl::TransitionSummary summary;
  if (desired != drained_) {
    auto transition = ac->apply_drain(desired);
    if (!transition.is_ok()) {
      undo_attrs();
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
  // best-effort: attributes exactly, and the drain transition by moving the
  // AC back to the previous drained set (placements stay admissible, though
  // a reservation migrated in Phase C may settle on a different live host
  // than it started on).
  auto abort_build_up = [&](std::string reason) {
    undo_attrs();
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
    ccm::Container* container = runtime_.find_container(change->instance.node);
    ccm::Component* component = container->find(change->instance.id);
    Status s = Status::ok();
    if (component != nullptr) {
      // Reactivation of a quiesced instance: refresh attributes, reactivate.
      s = component->configure(change->instance.properties);
      if (s.is_ok() &&
          component->state() == ccm::LifecycleState::kPassivated) {
        s = component->activate();
      }
    } else {
      auto installed = dance::NodeApplication(*container, runtime_.factory())
                           .install(change->instance);
      s = installed.is_ok() ? installed.value()->activate()
                            : Status::error(installed.message());
    }
    if (!s.is_ok()) return abort_build_up(s.message());
    ++report.added;
  }
  for (const Change* change : connections) {
    const dance::InstanceDeployment* source =
        target.find_instance(change->connection.source_instance);
    const dance::InstanceDeployment* sink =
        target.find_instance(change->connection.target_instance);
    assert(source != nullptr && sink != nullptr);  // target validated
    ccm::Component* source_component =
        runtime_.find_container(source->node)->find(source->id);
    ccm::Component* sink_component =
        runtime_.find_container(sink->node)->find(sink->id);
    if (source_component == nullptr || sink_component == nullptr) {
      return abort_build_up("connection '" + change->connection.name +
                            "' references an uninstalled instance");
    }
    if (Status s = dance::ExecutionManager::wire_connection(
            change->connection, *source_component, *sink_component);
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
    if (is_subtask_type(change->instance.type) &&
        drained_.count(change->instance.node) > 0 &&
        desired.count(change->instance.node) == 0) {
      ++node_generation_[change->instance.node];
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
    ProcessorId node, const std::vector<std::string>& ids) {
  ccm::Container* container = runtime_.find_container(node);
  assert(container != nullptr);
  std::size_t passivated = 0;
  for (const std::string& id : ids) {
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
  const dance::InstanceDeployment* ac = target.find_instance("Central-AC");
  core::StrategyCombination strategies = input_.strategies;
  if (ac != nullptr) {
    strategies.ac = plan_strategy(
        core::parse_ac_attr(ac->properties.get_string_or(
            core::AdmissionControl::kAcStrategyAttr, "PT")),
        core::AcStrategy::kPerTask);
    strategies.lb = plan_strategy(
        core::parse_lb_attr(ac->properties.get_string_or(
            core::AdmissionControl::kLbStrategyAttr, "N")),
        core::LbStrategy::kNone);
  }
  for (const auto& inst : target.instances) {
    if (inst.type == core::IdleResetter::kTypeName) {
      strategies.ir = plan_strategy(
          core::parse_ir_attr(inst.properties.get_string_or(
              core::IdleResetter::kStrategyAttr, "N")),
          core::IrStrategy::kNone);
      break;
    }
  }
  input_.strategies = strategies;
  runtime_.note_active_strategies(strategies);
  const dance::InstanceDeployment* lb = target.find_instance("Central-LB");
  if (lb != nullptr) {
    input_.lb_policy = lb->properties.get_string_or(
        core::LoadBalancerComponent::kPolicyAttr, input_.lb_policy);
  }
  input_.drained.assign(drained_.begin(), drained_.end());
}

}  // namespace rtcm::reconfig
