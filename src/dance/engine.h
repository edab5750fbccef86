// Deployment & Configuration engine (paper §6, Figure 4).
//
// Mirrors the DAnCE pipeline for a parsed deployment plan (plan_xml.h reads
// the XML descriptor):
//   ExecutionManager    — validates the plan and drives deployment,
//   NodeApplication     — creates each component via the component factory,
//     applies configProperties through the Configurator (set_configuration)
//     path and installs it into its node's container,
// then connections are wired receptacle-to-facet, and the caller activates.
// SystemRuntime::assemble() is the production caller: every deployment,
// direct or from XML, goes through ExecutionManager::launch.
#pragma once

#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "ccm/container.h"
#include "ccm/factory.h"
#include "dance/deployment_plan.h"

namespace rtcm::dance {

/// Resolves a plan node to the container hosting that node's components.
/// Returns null for unknown nodes (launch fails with a diagnostic).
using NodeResolver = std::function<ccm::Container*(ProcessorId)>;

/// Installs component instances into one node's container.
class NodeApplication {
 public:
  NodeApplication(ccm::Container& container,
                  ccm::ComponentFactory& factory)
      : container_(container), factory_(factory) {}

  /// create -> set_configuration -> install; returns the installed
  /// component.
  [[nodiscard]] Result<ccm::Component*> install(
      const InstanceDeployment& instance);

 private:
  ccm::Container& container_;
  ccm::ComponentFactory& factory_;
};

/// Drives the whole plan: validation, per-instance installation in plan
/// order, connections.  Activation stays with the caller (the runtime
/// activates the task manager node first).
class ExecutionManager {
 public:
  struct LaunchReport {
    std::size_t instances_installed = 0;
    std::size_t connections_wired = 0;
  };

  [[nodiscard]] Result<LaunchReport> launch(
      const DeploymentPlan& plan, const NodeResolver& resolver,
      ccm::ComponentFactory& factory) const;

  /// Wire one connection between two installed components: the target must
  /// provide the facet, and the source's receptacle must accept the target.
  /// Also the reconfiguration hook for connections a plan diff adds or
  /// rewires at run time.
  [[nodiscard]] static Status wire_connection(
      const ConnectionDeployment& connection, ccm::Component& source,
      ccm::Component& target);
};

}  // namespace rtcm::dance
