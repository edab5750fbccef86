#include "ccm/component.h"

#include <cassert>

#include "ccm/container.h"

namespace rtcm::ccm {

const char* to_string(LifecycleState state) {
  switch (state) {
    case LifecycleState::kCreated:
      return "Created";
    case LifecycleState::kConfigured:
      return "Configured";
    case LifecycleState::kActive:
      return "Active";
    case LifecycleState::kPassivated:
      return "Passivated";
  }
  return "?";
}

const ContainerContext& Component::context() const {
  assert(container_ && "component not installed in a container");
  return container_->context();
}

Status Component::configure(const ComponentConfig& config) {
  if (!config_fits(kind(), config)) {
    return Status::error("component '" + id_.to_string() + "' (" +
                         to_string(kind()) +
                         ") refuses a config of another kind");
  }
  const bool pre_activation = state_ == LifecycleState::kCreated ||
                              state_ == LifecycleState::kConfigured;
  // Runtime reconfiguration covers both live components and quiesced
  // (passivated) ones awaiting reactivation by the reconfiguration engine.
  const bool runtime_ok = (state_ == LifecycleState::kActive ||
                           state_ == LifecycleState::kPassivated) &&
                          supports_runtime_reconfiguration();
  if (!pre_activation && !runtime_ok) {
    return Status::error("component '" + id_.to_string() +
                         "' cannot be configured in state " +
                         std::string(to_string(state_)));
  }
  if (Status s = on_configure(config); !s.is_ok()) return s;
  if (pre_activation) state_ = LifecycleState::kConfigured;
  return Status::ok();
}

Status Component::activate() {
  if (state_ == LifecycleState::kActive) {
    return Status::error("component '" + id_.to_string() + "' already active");
  }
  if (container_ == nullptr) {
    return Status::error(std::string("component of kind ") +
                         to_string(kind()) +
                         " must be installed before activation");
  }
  // Reactivation after passivate() must not re-run on_activate(): event
  // subscriptions made there survive passivation (channels have no
  // per-component unsubscribe), so running it again would double-subscribe.
  if (state_ != LifecycleState::kPassivated) {
    if (Status s = on_activate(); !s.is_ok()) return s;
  }
  state_ = LifecycleState::kActive;
  return Status::ok();
}

Status Component::passivate() {
  if (state_ != LifecycleState::kActive) {
    return Status::error("component '" + id_.to_string() + "' is not active");
  }
  on_passivate();
  state_ = LifecycleState::kPassivated;
  return Status::ok();
}

Status Component::connect(Port port, Component& provider) {
  (void)provider;
  return Status::error("component '" + id_.to_string() +
                       "' has no receptacle '" + to_string(port) + "'");
}

Status Component::wrong_interface(Port port,
                                  const Component& provider) const {
  return Status::error(std::string("receptacle '") + to_string(port) +
                       "' of '" + id_.to_string() + "' cannot use '" +
                       provider.id().to_string() + "' (" +
                       to_string(provider.kind()) +
                       "): it lacks the required interface");
}

}  // namespace rtcm::ccm
