#include "dance/engine.h"

namespace rtcm::dance {

Status install(ccm::Container& container, const InstanceDeployment& instance,
               std::unique_ptr<ccm::Component> component) {
  // set_configuration: apply the plan's config before install so a failing
  // config never leaves a half-deployed instance behind.
  if (Status s = component->configure(instance.config); !s.is_ok()) {
    return Status::error("instance '" + instance.id.to_string() +
                         "' configuration failed: " + s.message());
  }
  return container.install(instance.id, std::move(component));
}

Result<ExecutionManager::LaunchReport> ExecutionManager::launch(
    const DeploymentPlan& plan, DeploymentTarget& target) {
  using R = Result<LaunchReport>;
  if (Status s = plan.validate(); !s.is_ok()) return R::error(s.message());
  LaunchReport report;
  for (const InstanceDeployment& inst : plan.instances) {
    auto component = target.install(inst);
    if (!component.is_ok()) return R::error(component.message());
    ++report.instances_installed;
  }
  for (const ConnectionDeployment& conn : plan.connections) {
    if (Status s = wire_connection(conn, target); !s.is_ok()) {
      return R::error(s.message());
    }
    ++report.connections_wired;
  }
  return report;
}

Status ExecutionManager::wire_connection(const ConnectionDeployment& connection,
                                         DeploymentTarget& target) {
  ccm::Component* source = target.find(connection.source);
  ccm::Component* sink = target.find(connection.target);
  if (source == nullptr || sink == nullptr) {
    return Status::error("connection '" + connection.name() +
                         "' references an uninstalled instance");
  }
  if (!sink->provides(connection.port)) {
    return Status::error("connection '" + connection.name() +
                         "': instance '" + connection.target.to_string() +
                         "' has no facet '" + ccm::to_string(connection.port) +
                         "'");
  }
  if (Status s = source->connect(connection.port, *sink); !s.is_ok()) {
    return Status::error("connection '" + connection.name() + "': " +
                         s.message());
  }
  return Status::ok();
}

}  // namespace rtcm::dance
