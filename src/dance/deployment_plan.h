// Deployment plan model (OMG Lightweight D&C, paper §6 / Figure 4).
//
// A plan describes how to build the system from available component
// implementations: which component instances to create, on which node each
// is instantiated, the configProperty values to apply through the
// Configurator interface (set_configuration), and how instances' ports are
// connected.
#pragma once

#include <string>
#include <vector>

#include "ccm/attributes.h"
#include "util/ids.h"
#include "util/result.h"

namespace rtcm::dance {

/// One component instance to deploy.
struct InstanceDeployment {
  /// Unique instance id, e.g. "Central-AC".
  std::string id;
  /// Implementation/type name resolved via the component factory,
  /// e.g. "rtcm.AdmissionControl".
  std::string type;
  /// Target node (processor).
  ProcessorId node;
  /// configProperty values applied at installation.
  ccm::AttributeMap properties;

  [[nodiscard]] bool operator==(const InstanceDeployment&) const = default;
};

/// One receptacle-to-facet connection between deployed instances.
struct ConnectionDeployment {
  std::string name;              // connection label (diagnostics)
  std::string source_instance;   // instance owning the receptacle
  std::string receptacle;        // receptacle port name
  std::string target_instance;   // instance owning the facet
  std::string facet;             // facet port name

  [[nodiscard]] bool operator==(const ConnectionDeployment&) const = default;
};

struct DeploymentPlan {
  std::string label;
  std::vector<InstanceDeployment> instances;
  std::vector<ConnectionDeployment> connections;

  [[nodiscard]] bool operator==(const DeploymentPlan&) const = default;

  [[nodiscard]] const InstanceDeployment* find_instance(
      const std::string& id) const;

  /// Structural validation: non-empty unique instance ids, valid nodes,
  /// connections referencing existing instances.
  [[nodiscard]] Status validate() const;

  /// Distinct nodes referenced by the plan, ascending.
  [[nodiscard]] std::vector<ProcessorId> nodes() const;
};

}  // namespace rtcm::dance
