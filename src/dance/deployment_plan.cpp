#include "dance/deployment_plan.h"

#include <algorithm>
#include <set>
#include <string_view>

namespace rtcm::dance {

const InstanceDeployment* DeploymentPlan::find_instance(
    const std::string& id) const {
  for (const InstanceDeployment& inst : instances) {
    if (inst.id == id) return &inst;
  }
  return nullptr;
}

Status DeploymentPlan::validate() const {
  if (instances.empty()) {
    return Status::error("deployment plan '" + label + "' has no instances");
  }
  std::vector<std::string_view> ids;
  ids.reserve(instances.size());
  for (const InstanceDeployment& inst : instances) {
    if (inst.id.empty()) {
      return Status::error("plan '" + label + "' has an instance with no id");
    }
    if (inst.type.empty()) {
      return Status::error("instance '" + inst.id + "' has no type");
    }
    if (!inst.node.valid()) {
      return Status::error("instance '" + inst.id + "' has no valid node");
    }
    ids.push_back(inst.id);
  }
  std::sort(ids.begin(), ids.end());
  if (const auto dup = std::adjacent_find(ids.begin(), ids.end());
      dup != ids.end()) {
    return Status::error("duplicate instance id '" + std::string(*dup) + "'");
  }
  const auto known = [&ids](const std::string& id) {
    return std::binary_search(ids.begin(), ids.end(), std::string_view(id));
  };
  for (const ConnectionDeployment& conn : connections) {
    if (!known(conn.source_instance)) {
      return Status::error("connection '" + conn.name +
                           "' references unknown source instance '" +
                           conn.source_instance + "'");
    }
    if (!known(conn.target_instance)) {
      return Status::error("connection '" + conn.name +
                           "' references unknown target instance '" +
                           conn.target_instance + "'");
    }
    if (conn.receptacle.empty() || conn.facet.empty()) {
      return Status::error("connection '" + conn.name +
                           "' must name a receptacle and a facet");
    }
  }
  return Status::ok();
}

std::vector<ProcessorId> DeploymentPlan::nodes() const {
  std::set<ProcessorId> nodes;
  for (const InstanceDeployment& inst : instances) nodes.insert(inst.node);
  return {nodes.begin(), nodes.end()};
}

}  // namespace rtcm::dance
