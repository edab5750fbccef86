#include "ccm/attributes.h"

#include <algorithm>

#include "util/strings.h"

namespace rtcm::ccm {

namespace {

bool name_less(const std::pair<std::string, AttributeValue>& entry,
               const std::string& name) {
  return entry.first < name;
}

}  // namespace

void AttributeMap::set(const std::string& name, AttributeValue value) {
  const auto it =
      std::lower_bound(values_.begin(), values_.end(), name, name_less);
  if (it != values_.end() && it->first == name) {
    it->second = std::move(value);
  } else {
    values_.emplace(it, name, std::move(value));
  }
}

const AttributeValue* AttributeMap::find(const std::string& name) const {
  const auto it =
      std::lower_bound(values_.begin(), values_.end(), name, name_less);
  return it != values_.end() && it->first == name ? &it->second : nullptr;
}

bool AttributeMap::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::vector<std::string> AttributeMap::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, value] : values_) out.push_back(name);
  return out;
}

Result<std::string> AttributeMap::get_string(const std::string& name) const {
  const AttributeValue* value = find(name);
  if (value == nullptr) {
    return Result<std::string>::error("missing attribute '" + name + "'");
  }
  if (const auto* s = std::get_if<std::string>(value)) return *s;
  if (const auto* b = std::get_if<bool>(value)) {
    return std::string(*b ? "true" : "false");
  }
  if (const auto* i = std::get_if<std::int64_t>(value)) {
    return std::to_string(*i);
  }
  if (const auto* d = std::get_if<double>(value)) {
    return std::to_string(*d);
  }
  return Result<std::string>::error("attribute '" + name + "' has no value");
}

Result<std::int64_t> AttributeMap::get_int(const std::string& name) const {
  const AttributeValue* value = find(name);
  if (value == nullptr) {
    return Result<std::int64_t>::error("missing attribute '" + name + "'");
  }
  if (const auto* i = std::get_if<std::int64_t>(value)) return *i;
  if (const auto* s = std::get_if<std::string>(value)) {
    std::int64_t v = 0;
    if (parse_int64(*s, v)) return v;
  }
  return Result<std::int64_t>::error("attribute '" + name +
                                     "' is not an integer");
}

Result<double> AttributeMap::get_double(const std::string& name) const {
  const AttributeValue* value = find(name);
  if (value == nullptr) {
    return Result<double>::error("missing attribute '" + name + "'");
  }
  if (const auto* d = std::get_if<double>(value)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(value)) {
    return static_cast<double>(*i);
  }
  if (const auto* s = std::get_if<std::string>(value)) {
    double v = 0;
    if (parse_double(*s, v)) return v;
  }
  return Result<double>::error("attribute '" + name + "' is not a number");
}

Result<bool> AttributeMap::get_bool(const std::string& name) const {
  const AttributeValue* value = find(name);
  if (value == nullptr) {
    return Result<bool>::error("missing attribute '" + name + "'");
  }
  if (const auto* b = std::get_if<bool>(value)) return *b;
  if (const auto* s = std::get_if<std::string>(value)) {
    bool v = false;
    if (parse_bool(*s, v)) return v;
  }
  return Result<bool>::error("attribute '" + name + "' is not a boolean");
}

Result<Duration> AttributeMap::get_duration(const std::string& name) const {
  auto r = get_int(name);
  if (!r.is_ok()) return Result<Duration>::error(r.message());
  return Duration(r.value());
}

std::string AttributeMap::get_string_or(const std::string& name,
                                        const std::string& def) const {
  auto r = get_string(name);
  return r.is_ok() ? r.value() : def;
}

std::int64_t AttributeMap::get_int_or(const std::string& name,
                                      std::int64_t def) const {
  auto r = get_int(name);
  return r.is_ok() ? r.value() : def;
}

void AttributeMap::merge(const AttributeMap& other) {
  if (values_.empty()) {
    values_ = other.values_;
    return;
  }
  for (const auto& [name, value] : other.values_) set(name, value);
}

}  // namespace rtcm::ccm
