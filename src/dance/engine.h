// Deployment & Configuration engine (paper §6, Figure 4).
//
// Mirrors the DAnCE pipeline for a typed deployment plan (plan_xml.h reads
// the XML descriptor into one):
//   ExecutionManager — validates the plan, installs every instance in plan
//     order through the DeploymentTarget, then wires the connections
//     receptacle-to-facet; the caller activates.
//   install()        — the NodeApplication step shared by every target:
//     set_configuration with the instance's typed config, then install into
//     the node's container under the instance's identity.
// SystemRuntime is the production target: it creates each instance with a
// switch on its kind, and both assemble() and the reconfiguration manager's
// build-up go through SystemRuntime::install.
#pragma once

#include <cstddef>
#include <memory>

#include "ccm/container.h"
#include "dance/deployment_plan.h"

namespace rtcm::dance {

/// Where a plan is deployed: creates, configures and installs one instance,
/// and finds installed ones.
class DeploymentTarget {
 public:
  virtual ~DeploymentTarget() = default;
  [[nodiscard]] virtual Result<ccm::Component*> install(
      const InstanceDeployment& instance) = 0;
  /// Null when no such instance is installed.
  [[nodiscard]] virtual ccm::Component* find(const InstanceId& id) = 0;
};

/// set_configuration -> install: apply the instance's config to `component`
/// and install it into `container`.  A failing config never leaves a
/// half-deployed instance behind.
[[nodiscard]] Status install(ccm::Container& container,
                             const InstanceDeployment& instance,
                             std::unique_ptr<ccm::Component> component);

/// Drives the whole plan: validation, per-instance installation in plan
/// order, connections.  Activation stays with the caller (the runtime
/// activates the task manager node first).
class ExecutionManager {
 public:
  struct LaunchReport {
    std::size_t instances_installed = 0;
    std::size_t connections_wired = 0;
  };

  [[nodiscard]] static Result<LaunchReport> launch(const DeploymentPlan& plan,
                                                   DeploymentTarget& target);

  /// Wire one connection between two installed instances: the target must
  /// provide the port's facet, and the source's receptacle must accept the
  /// target.  Also the reconfiguration hook for connections a plan diff adds
  /// or rewires at run time.
  [[nodiscard]] static Status wire_connection(
      const ConnectionDeployment& connection, DeploymentTarget& target);
};

}  // namespace rtcm::dance
