#include "ccm/factory.h"

namespace rtcm::ccm {

Status ComponentFactory::register_type(const std::string& type_name,
                                       Creator creator) {
  if (type_name.empty()) return Status::error("empty component type name");
  if (!creator) {
    return Status::error("null creator for component type '" + type_name +
                         "'");
  }
  if (creators_.count(type_name) > 0) {
    return Status::error("component type '" + type_name +
                         "' already registered");
  }
  creators_.emplace(type_name, std::move(creator));
  return Status::ok();
}

bool ComponentFactory::knows(const std::string& type_name) const {
  return creators_.count(type_name) > 0;
}

Result<std::unique_ptr<Component>> ComponentFactory::create(
    const std::string& type_name, ProcessorId node) {
  const auto it = creators_.find(type_name);
  if (it == creators_.end()) {
    return Result<std::unique_ptr<Component>>::error(
        "unknown component type '" + type_name + "'");
  }
  auto component = it->second(node);
  if (!component) {
    return Result<std::unique_ptr<Component>>::error(
        "creator for '" + type_name + "' returned null");
  }
  return component;
}

std::vector<std::string> ComponentFactory::type_names() const {
  std::vector<std::string> out;
  out.reserve(creators_.size());
  for (const auto& [name, creator] : creators_) out.push_back(name);
  return out;
}

}  // namespace rtcm::ccm
