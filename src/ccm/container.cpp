#include "ccm/container.h"

namespace rtcm::ccm {

Status Container::install(const InstanceId& id,
                          std::unique_ptr<Component> component) {
  if (!component) {
    return Status::error("cannot install null component '" + id.to_string() +
                         "'");
  }
  if (component->kind() != id.kind) {
    return Status::error(std::string("cannot install a ") +
                         to_string(component->kind()) + " component as '" +
                         id.to_string() + "'");
  }
  if (id.node != context_.processor) {
    return Status::error("instance '" + id.to_string() +
                         "' does not belong on " +
                         context_.processor.to_string());
  }
  const auto [slot, inserted] = components_.try_emplace(id);
  if (!inserted) {
    return Status::error("duplicate component instance '" + id.to_string() +
                         "' on " + context_.processor.to_string());
  }
  component->id_ = id;
  component->container_ = this;
  order_.push_back(component.get());
  slot->second = std::move(component);
  return Status::ok();
}

Component* Container::find(const InstanceId& id) const {
  const auto it = components_.find(id);
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
