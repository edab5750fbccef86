// Deployment-plan differencing (the paper's "reconfigurable" promise).
//
// The PlanDiffer compares two typed OMG D&C deployment plans and produces
// an ordered changeset of primitive operations — remove / add / reconfigure
// / rewire — that transforms the first plan into the second.  An instance's
// identity includes its kind and node, so a different implementation or a
// different node is a different instance (remove + add); configs compare
// with operator==.  The ordering is canonical (tear-down before build-up)
// so the runtime ReconfigurationManager can apply it deterministically:
//
//   1. remove connections        (in from-plan order)
//   2. remove instances          (in from-plan order)
//   3. reconfigure instances     (in from-plan order)
//   4. add instances             (in to-plan order)
//   5. rewire connections        (in to-plan order)
//   6. add connections           (in to-plan order)
//
// apply_changeset() is the pure algebra: applying diff(p, q) to p yields a
// plan equivalent to q (same instances and connections; ordering follows the
// rule above).  The unit tests pin diff(p, p) == empty and the round trip.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dance/deployment_plan.h"
#include "util/result.h"

namespace rtcm::reconfig {

enum class ChangeKind {
  kRemoveConnection,
  kRemoveInstance,
  kReconfigureInstance,  // same identity, different config
  kAddInstance,
  kRewireConnection,     // same (source, port), different target
  kAddConnection,
};

[[nodiscard]] const char* to_string(ChangeKind kind);

struct Change {
  ChangeKind kind;
  /// Desired state for add/reconfigure; the removed instance for
  /// kRemoveInstance.  Unused for connection operations.
  dance::InstanceDeployment instance;
  /// Desired connection for add/rewire; the removed one for remove.
  dance::ConnectionDeployment connection;
  /// Previous endpoint of a rewired connection.
  dance::ConnectionDeployment old_connection;
};

struct Changeset {
  std::string from_label;
  std::string to_label;
  std::vector<Change> changes;

  [[nodiscard]] bool empty() const { return changes.empty(); }
  [[nodiscard]] std::size_t count(ChangeKind kind) const;
  /// One line per change, for diagnostics and golden tests.
  [[nodiscard]] std::string render() const;
};

class PlanDiffer {
 public:
  /// Both plans must validate; instance identity is the InstanceId,
  /// connection identity is (source instance, port) — a receptacle holds
  /// exactly one connection.
  [[nodiscard]] static Result<Changeset> diff(const dance::DeploymentPlan& from,
                                              const dance::DeploymentPlan& to);
};

/// Apply a changeset to a plan (pure data transformation; no runtime
/// involved).  Errors on inconsistencies: removing or reconfiguring a
/// missing instance, adding a duplicate, and so on.
[[nodiscard]] Result<dance::DeploymentPlan> apply_changeset(
    const dance::DeploymentPlan& plan, const Changeset& changes);

}  // namespace rtcm::reconfig
