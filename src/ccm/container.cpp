#include "ccm/container.h"

namespace rtcm::ccm {

Status Container::install(const std::string& instance_name,
                          std::unique_ptr<Component> component) {
  if (!component) {
    return Status::error("cannot install null component '" + instance_name +
                         "'");
  }
  if (instance_name.empty()) {
    return Status::error("component instance name must not be empty");
  }
  const auto [slot, inserted] = components_.try_emplace(instance_name);
  if (!inserted) {
    return Status::error("duplicate component instance '" + instance_name +
                         "' on " + context_.processor.to_string());
  }
  component->instance_name_ = instance_name;
  component->container_ = this;
  order_.push_back(component.get());
  slot->second = std::move(component);
  return Status::ok();
}

Component* Container::find(std::string_view instance_name) const {
  const auto it = components_.find(instance_name);
  return it == components_.end() ? nullptr : it->second.get();
}

Status Container::activate_all() {
  for (Component* c : order_) {
    if (Status s = c->activate(); !s.is_ok()) return s;
  }
  return Status::ok();
}

Status Container::passivate_all() {
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    Component* c = *it;
    if (c->state() == LifecycleState::kActive) {
      if (Status s = c->passivate(); !s.is_ok()) return s;
    }
  }
  return Status::ok();
}

}  // namespace rtcm::ccm
