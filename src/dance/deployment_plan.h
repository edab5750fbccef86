// Deployment plan model (OMG Lightweight D&C, paper §6 / Figure 4).
//
// A plan describes how to build the system from the middleware's component
// kinds: which instances to create (identity = kind, node and, for Subtask
// instances, task and stage), the typed config each is set_configuration'd
// with, and how instances' ports are connected.  The plan is resolved once,
// as typed values; XML (plan_xml.h) is only its external form.
#pragma once

#include <string>
#include <vector>

#include "ccm/instance.h"
#include "util/result.h"

namespace rtcm::dance {

using ccm::ComponentConfig;
using ccm::ComponentKind;
using ccm::InstanceId;
using ccm::Port;

/// One component instance to deploy.
struct InstanceDeployment {
  InstanceId id;
  /// The struct of id.kind, applied at installation.
  ComponentConfig config;

  [[nodiscard]] bool operator==(const InstanceDeployment&) const = default;
};

/// Wires the receptacle of `port` on `source` to the facet of `port` on
/// `target`.  A receptacle holds one connection, so (source, port) is the
/// connection's identity.
struct ConnectionDeployment {
  InstanceId source;
  Port port = Port::kLocation;
  InstanceId target;

  [[nodiscard]] bool operator==(const ConnectionDeployment&) const = default;

  /// Diagnostic label: "ac-location", "T3_S2@P4-complete".
  [[nodiscard]] std::string name() const;
};

struct DeploymentPlan {
  std::string label;
  std::vector<InstanceDeployment> instances;
  std::vector<ConnectionDeployment> connections;

  [[nodiscard]] bool operator==(const DeploymentPlan&) const = default;

  [[nodiscard]] const InstanceDeployment* find_instance(
      const InstanceId& id) const;

  /// Structural validation: at least one instance, valid nodes, each config
  /// of its instance's kind, unique identities, and connections between
  /// existing instances whose kinds have the connection's port.
  [[nodiscard]] Status validate() const;
};

}  // namespace rtcm::dance
