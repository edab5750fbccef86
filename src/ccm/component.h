// CCM-lite component base class.
//
// A component is a unit of implementation and composition (paper §2) with:
//   - a kind and, once installed, an InstanceId (ccm/instance.h),
//   - a typed configuration applied through configure() — the Configurator /
//     set_configuration path of Figure 4.  Each kind takes its own struct;
//     configure() refuses another kind's and replaces the old config whole,
//   - typed ports: a facet is an interface the component class itself
//     implements (which kind provides which port is fixed in
//     ccm/instance.h); a receptacle is a typed pointer member that connect()
//     fills from the providing component after checking the interface with
//     dynamic_cast,
//   - a lifecycle: Created -> Configured -> Active -> Passivated.
//
// Event ports need no declaration: components subscribe to and push on the
// federated channel held by their container.
#pragma once

#include "ccm/instance.h"
#include "util/result.h"

namespace rtcm::ccm {

class Container;
struct ContainerContext;

enum class LifecycleState { kCreated, kConfigured, kActive, kPassivated };

[[nodiscard]] const char* to_string(LifecycleState state);

class Component {
 public:
  explicit Component(ComponentKind kind) : id_(kind) {}
  virtual ~Component() = default;
  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  [[nodiscard]] ComponentKind kind() const { return id_.kind; }
  /// The instance identity; only the kind is set until installed.
  [[nodiscard]] const InstanceId& id() const { return id_; }
  [[nodiscard]] LifecycleState state() const { return state_; }
  /// The hosting container; null until installed.
  [[nodiscard]] Container* container() const { return container_; }
  /// The hosting container's context; asserts if not installed.
  [[nodiscard]] const ContainerContext& context() const;

  /// Apply this kind's config (set_configuration), replacing the previous
  /// one.  Allowed in Created or Configured state — and, for components that
  /// opt in via supports_runtime_reconfiguration(), also while Active or
  /// Passivated (paper §5: the TE's attributes "may be modified at
  /// run-time"; the reconfiguration engine configures quiesced components
  /// before reactivating them).
  [[nodiscard]] Status configure(const ComponentConfig& config);

  /// Whether configure() is permitted while Active.
  [[nodiscard]] virtual bool supports_runtime_reconfiguration() const {
    return false;
  }

  /// Transition to Active; subclasses subscribe to events here.
  [[nodiscard]] Status activate();

  /// Transition to Passivated; must currently be Active.
  [[nodiscard]] Status passivate();

  // --- Ports -------------------------------------------------------------
  //
  // A plan connection names a port, its source instance (the receptacle)
  // and its target (the facet); the deployment engine checks provides() on
  // the target, then hands the target to connect() on the source.

  /// Whether this component provides the facet of `port`.
  [[nodiscard]] bool provides(Port port) const {
    return has_facet(kind(), port);
  }

  /// Wire the receptacle of `port` to `provider`.  Errors for receptacles
  /// this component lacks and for providers lacking the interface.
  [[nodiscard]] virtual Status connect(Port port, Component& provider);

 protected:
  /// Subclass hook; `config` holds the struct of this component's kind.
  [[nodiscard]] virtual Status on_configure(const ComponentConfig& config) {
    (void)config;
    return Status::ok();
  }
  [[nodiscard]] virtual Status on_activate() { return Status::ok(); }
  virtual void on_passivate() {}

  /// connect() helper: point `slot` at `provider` as an `Interface`, or
  /// report that the provider does not implement it.
  template <typename Interface>
  [[nodiscard]] Status bind(Interface*& slot, Port port, Component& provider) {
    auto* iface = dynamic_cast<Interface*>(&provider);
    if (iface == nullptr) return wrong_interface(port, provider);
    slot = iface;
    return Status::ok();
  }

 private:
  [[nodiscard]] Status wrong_interface(Port port,
                                       const Component& provider) const;

  friend class Container;

  InstanceId id_;
  LifecycleState state_ = LifecycleState::kCreated;
  Container* container_ = nullptr;
};

}  // namespace rtcm::ccm
