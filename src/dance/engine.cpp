#include "dance/engine.h"

#include <algorithm>

namespace rtcm::dance {

Result<ccm::Component*> NodeApplication::install(
    const InstanceDeployment& instance) {
  using R = Result<ccm::Component*>;
  auto created = factory_.create(instance.type, instance.node);
  if (!created.is_ok()) {
    return R::error("instance '" + instance.id + "': " + created.message());
  }
  ccm::Component* raw = created.value().get();
  // set_configuration: apply the plan's configProperties before install so
  // a failing property never leaves a half-deployed instance behind.
  if (Status s = raw->configure(instance.properties); !s.is_ok()) {
    return R::error("instance '" + instance.id +
                    "' configuration failed: " + s.message());
  }
  if (Status s = container_.install(instance.id, std::move(created).value());
      !s.is_ok()) {
    return R::error(s.message());
  }
  return raw;
}

Result<ExecutionManager::LaunchReport> ExecutionManager::launch(
    const DeploymentPlan& plan, const NodeResolver& resolver,
    ccm::ComponentFactory& factory) const {
  using R = Result<LaunchReport>;
  if (Status s = plan.validate(); !s.is_ok()) return R::error(s.message());

  // Installed components by instance id, sorted once for the wiring pass
  // (ids are unique: validate() checked).
  std::vector<std::pair<std::string_view, ccm::Component*>> installed;
  installed.reserve(plan.instances.size());
  LaunchReport report;
  for (const InstanceDeployment& inst : plan.instances) {
    ccm::Container* container = resolver(inst.node);
    if (container == nullptr) {
      return R::error("no container available for node " +
                      inst.node.to_string());
    }
    auto component = NodeApplication(*container, factory).install(inst);
    if (!component.is_ok()) return R::error(component.message());
    installed.emplace_back(inst.id, component.value());
    ++report.instances_installed;
  }
  const auto by_id = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(installed.begin(), installed.end(), by_id);
  const auto find = [&](std::string_view id) {
    return std::lower_bound(installed.begin(), installed.end(),
                            std::pair<std::string_view, ccm::Component*>(
                                id, nullptr),
                            by_id)
        ->second;
  };
  for (const ConnectionDeployment& conn : plan.connections) {
    if (Status s = wire_connection(conn, *find(conn.source_instance),
                                   *find(conn.target_instance));
        !s.is_ok()) {
      return R::error(s.message());
    }
    ++report.connections_wired;
  }
  return report;
}

Status ExecutionManager::wire_connection(const ConnectionDeployment& connection,
                                         ccm::Component& source,
                                         ccm::Component& target) {
  if (!target.provides(connection.facet)) {
    return Status::error("connection '" + connection.name + "': instance '" +
                         connection.target_instance + "' has no facet '" +
                         connection.facet + "'");
  }
  if (Status s = source.connect(connection.receptacle, target); !s.is_ok()) {
    return Status::error("connection '" + connection.name + "': " +
                         s.message());
  }
  return Status::ok();
}

}  // namespace rtcm::dance
