#include "dance/deployment_plan.h"

#include <algorithm>

namespace rtcm::dance {

std::string ConnectionDeployment::name() const {
  // The central AC has one receptacle, so its kind names the connection.
  std::string out = source.kind == ComponentKind::kAdmissionControl
                        ? std::string("ac")
                        : source.to_string();
  out += port == Port::kLocation ? "-location" : "-complete";
  return out;
}

const InstanceDeployment* DeploymentPlan::find_instance(
    const InstanceId& id) const {
  for (const InstanceDeployment& inst : instances) {
    if (inst.id == id) return &inst;
  }
  return nullptr;
}

Status DeploymentPlan::validate() const {
  if (instances.empty()) {
    return Status::error("deployment plan '" + label + "' has no instances");
  }
  std::vector<InstanceId> ids;
  ids.reserve(instances.size());
  for (const InstanceDeployment& inst : instances) {
    if (!inst.id.node.valid()) {
      return Status::error("instance '" + inst.id.to_string() +
                           "' has no valid node");
    }
    if (!ccm::config_fits(inst.id.kind, inst.config)) {
      return Status::error("instance '" + inst.id.to_string() +
                           "' carries a config of another kind");
    }
    ids.push_back(inst.id);
  }
  std::sort(ids.begin(), ids.end());
  if (const auto dup = std::adjacent_find(ids.begin(), ids.end());
      dup != ids.end()) {
    return Status::error("duplicate instance '" + dup->to_string() + "'");
  }
  const auto known = [&ids](const InstanceId& id) {
    return std::binary_search(ids.begin(), ids.end(), id);
  };
  for (const ConnectionDeployment& conn : connections) {
    if (!known(conn.source)) {
      return Status::error("connection '" + conn.name() +
                           "' references unknown source instance '" +
                           conn.source.to_string() + "'");
    }
    if (!known(conn.target)) {
      return Status::error("connection '" + conn.name() +
                           "' references unknown target instance '" +
                           conn.target.to_string() + "'");
    }
    if (!ccm::has_receptacle(conn.source.kind, conn.port)) {
      return Status::error("connection '" + conn.name() + "': instance '" +
                           conn.source.to_string() + "' has no receptacle '" +
                           ccm::to_string(conn.port) + "'");
    }
    if (!ccm::has_facet(conn.target.kind, conn.port)) {
      return Status::error("connection '" + conn.name() + "': instance '" +
                           conn.target.to_string() + "' has no facet '" +
                           ccm::to_string(conn.port) + "'");
    }
  }
  return Status::ok();
}

}  // namespace rtcm::dance
