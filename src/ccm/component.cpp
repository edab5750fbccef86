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

Component::Component(std::string type_name)
    : type_name_(std::move(type_name)) {}

const ContainerContext& Component::context() const {
  assert(container_ && "component not installed in a container");
  return container_->context();
}

Status Component::configure(const AttributeMap& properties) {
  const bool pre_activation = state_ == LifecycleState::kCreated ||
                              state_ == LifecycleState::kConfigured;
  // Runtime reconfiguration covers both live components and quiesced
  // (passivated) ones awaiting reactivation by the reconfiguration engine.
  const bool runtime_ok = (state_ == LifecycleState::kActive ||
                           state_ == LifecycleState::kPassivated) &&
                          supports_runtime_reconfiguration();
  if (!pre_activation && !runtime_ok) {
    return Status::error("component '" + instance_name_ +
                         "' cannot be configured in state " +
                         std::string(to_string(state_)));
  }
  attributes_.merge(properties);
  if (Status s = on_configure(attributes_); !s.is_ok()) return s;
  if (pre_activation) state_ = LifecycleState::kConfigured;
  return Status::ok();
}

Status Component::activate() {
  if (state_ == LifecycleState::kActive) {
    return Status::error("component '" + instance_name_ + "' already active");
  }
  if (container_ == nullptr) {
    return Status::error("component '" + type_name_ +
                         "' must be installed before activation");
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
    return Status::error("component '" + instance_name_ + "' is not active");
  }
  on_passivate();
  state_ = LifecycleState::kPassivated;
  return Status::ok();
}

Status Component::connect(std::string_view receptacle, Component& provider) {
  (void)provider;
  return Status::error("component '" + instance_name_ +
                       "' has no receptacle '" + std::string(receptacle) +
                       "'");
}

Status Component::wrong_interface(std::string_view receptacle,
                                  const Component& provider) const {
  return Status::error("receptacle '" + std::string(receptacle) + "' of '" +
                       instance_name_ + "' cannot use '" +
                       provider.instance_name() + "' (" +
                       provider.type_name() +
                       "): it lacks the required interface");
}

}  // namespace rtcm::ccm
