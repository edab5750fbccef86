// CCM-lite component base class.
//
// A component is a unit of implementation and composition (paper §2) with:
//   - typed attributes applied through configure() — the Configurator /
//     set_configuration path of Figure 4,
//   - typed ports: a facet is an interface the component class itself
//     implements, named through provides(); a receptacle is a typed pointer
//     member that connect() fills from the providing component after
//     checking the interface with dynamic_cast,
//   - a lifecycle: Created -> Configured -> Active -> Passivated.
//
// Event ports need no declaration: components subscribe to and push on the
// federated channel held by their container.
#pragma once

#include <string>
#include <string_view>

#include "ccm/attributes.h"
#include "util/result.h"

namespace rtcm::ccm {

class Container;
struct ContainerContext;

enum class LifecycleState { kCreated, kConfigured, kActive, kPassivated };

[[nodiscard]] const char* to_string(LifecycleState state);

class Component {
 public:
  explicit Component(std::string type_name);
  virtual ~Component() = default;
  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  [[nodiscard]] const std::string& type_name() const { return type_name_; }
  /// Instance name; empty until installed into a container.
  [[nodiscard]] const std::string& instance_name() const {
    return instance_name_;
  }
  [[nodiscard]] LifecycleState state() const { return state_; }
  /// The hosting container; null until installed.
  [[nodiscard]] Container* container() const { return container_; }
  /// The hosting container's context; asserts if not installed.
  [[nodiscard]] const ContainerContext& context() const;

  /// Apply configProperties (set_configuration).  Allowed in Created or
  /// Configured state — and, for components that opt in via
  /// supports_runtime_reconfiguration(), also while Active or Passivated
  /// (paper §5: the TE's attributes "may be modified at run-time"; the
  /// reconfiguration engine configures quiesced components before
  /// reactivating them).  Attributes are retained and re-readable.
  [[nodiscard]] Status configure(const AttributeMap& properties);

  /// Whether configure() is permitted while Active.
  [[nodiscard]] virtual bool supports_runtime_reconfiguration() const {
    return false;
  }

  /// Transition to Active; subclasses subscribe to events here.
  [[nodiscard]] Status activate();

  /// Transition to Passivated; must currently be Active.
  [[nodiscard]] Status passivate();

  [[nodiscard]] const AttributeMap& attributes() const { return attributes_; }

  // --- Ports -------------------------------------------------------------
  //
  // A plan connection names a receptacle on its source instance and a facet
  // on its target; the deployment engine checks provides() on the target,
  // then hands the target to connect() on the source.

  /// Whether this component provides the named facet.
  [[nodiscard]] virtual bool provides(std::string_view facet) const {
    (void)facet;
    return false;
  }

  /// Wire the named receptacle to `provider`.  Errors for unknown
  /// receptacles and for providers lacking the receptacle's interface.
  [[nodiscard]] virtual Status connect(std::string_view receptacle,
                                       Component& provider);

 protected:
  /// Subclass hooks.
  [[nodiscard]] virtual Status on_configure(const AttributeMap& properties) {
    (void)properties;
    return Status::ok();
  }
  [[nodiscard]] virtual Status on_activate() { return Status::ok(); }
  virtual void on_passivate() {}

  /// connect() helper: point `slot` at `provider` as an `Interface`, or
  /// report that the provider does not implement it.
  template <typename Interface>
  [[nodiscard]] Status bind(Interface*& slot, std::string_view receptacle,
                            Component& provider) {
    auto* iface = dynamic_cast<Interface*>(&provider);
    if (iface == nullptr) return wrong_interface(receptacle, provider);
    slot = iface;
    return Status::ok();
  }

 private:
  [[nodiscard]] Status wrong_interface(std::string_view receptacle,
                                       const Component& provider) const;

  friend class Container;

  std::string type_name_;
  std::string instance_name_;
  LifecycleState state_ = LifecycleState::kCreated;
  Container* container_ = nullptr;
  AttributeMap attributes_;
};

}  // namespace rtcm::ccm
