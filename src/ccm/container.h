// Component container: the per-processor execution environment.
//
// A container hosts the component instances deployed on one (simulated)
// processor and hands them their execution context: the simulator clock, the
// network, the federated event channel, and the processor's dispatching
// model.  DAnCE's NodeApplication installs components into containers and
// then activates them (paper Figure 4).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "ccm/component.h"
#include "events/federated_channel.h"
#include "sim/network.h"
#include "sim/processor.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace rtcm::sim {
class DeferrableServer;
}  // namespace rtcm::sim

namespace rtcm::ccm {

/// Everything a hosted component may touch.  References outlive containers
/// (all owned by the enclosing runtime/universe object).
struct ContainerContext {
  sim::Simulator& sim;
  sim::Network& network;
  events::FederatedEventChannel& federation;
  sim::Processor& cpu;
  sim::Trace& trace;
  ProcessorId processor;
  /// Non-null when the deployment schedules aperiodic subjobs through a
  /// deferrable server on this processor (DS analysis mode).
  sim::DeferrableServer* aperiodic_server = nullptr;

  /// This node's local event channel.
  [[nodiscard]] events::LocalEventChannel& local_channel() const {
    return federation.channel(processor);
  }
};

class Container {
 public:
  explicit Container(ContainerContext context) : context_(context) {}
  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  [[nodiscard]] const ContainerContext& context() const { return context_; }
  [[nodiscard]] ProcessorId processor() const { return context_.processor; }

  /// Install a component under a unique identity of its kind on this
  /// container's processor.
  [[nodiscard]] Status install(const InstanceId& id,
                               std::unique_ptr<Component> component);

  [[nodiscard]] Component* find(const InstanceId& id) const;

  /// Typed lookup; returns null if missing or of a different dynamic type.
  template <typename T>
  [[nodiscard]] T* find_as(const InstanceId& id) const {
    return dynamic_cast<T*>(find(id));
  }

  /// Activate every installed component (in installation order).
  [[nodiscard]] Status activate_all();
  /// Passivate every active component (in reverse installation order).
  [[nodiscard]] Status passivate_all();

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  /// Installed components, in installation order.
  [[nodiscard]] const std::vector<Component*>& components() const {
    return order_;
  }

 private:
  ContainerContext context_;
  std::map<InstanceId, std::unique_ptr<Component>> components_;
  std::vector<Component*> order_;
};

}  // namespace rtcm::ccm
