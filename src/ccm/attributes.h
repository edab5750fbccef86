// Component attribute map (CCM configProperty values).
//
// Deployment plans carry properties as typed values; XML descriptors carry
// them as strings.  The typed getters therefore coerce: fetching an int from
// a string attribute parses it, so a component behaves identically whether
// it was configured programmatically or from a parsed descriptor — exactly
// the role of DAnCE's Configurator/set_configuration path.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/result.h"
#include "util/time.h"

namespace rtcm::ccm {

using AttributeValue = std::variant<bool, std::int64_t, double, std::string>;

class AttributeMap {
 public:
  void set(const std::string& name, AttributeValue value);
  void set_string(const std::string& name, std::string v) {
    set(name, AttributeValue(std::move(v)));
  }
  void set_int(const std::string& name, std::int64_t v) {
    set(name, AttributeValue(v));
  }
  void set_double(const std::string& name, double v) {
    set(name, AttributeValue(v));
  }
  void set_bool(const std::string& name, bool v) {
    set(name, AttributeValue(v));
  }
  /// Durations are stored as int64 microseconds.
  void set_duration(const std::string& name, Duration d) {
    set(name, AttributeValue(d.usec()));
  }

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Structural equality (the plan differ's notion of "reconfigured").
  [[nodiscard]] bool operator==(const AttributeMap&) const = default;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Typed getters; coerce from string where unambiguous.  Errors name the
  /// attribute so configuration failures read well.
  [[nodiscard]] Result<std::string> get_string(const std::string& name) const;
  [[nodiscard]] Result<std::int64_t> get_int(const std::string& name) const;
  [[nodiscard]] Result<double> get_double(const std::string& name) const;
  [[nodiscard]] Result<bool> get_bool(const std::string& name) const;
  [[nodiscard]] Result<Duration> get_duration(const std::string& name) const;

  /// Convenience with-default forms.
  [[nodiscard]] std::string get_string_or(const std::string& name,
                                          const std::string& def) const;
  [[nodiscard]] std::int64_t get_int_or(const std::string& name,
                                        std::int64_t def) const;

  /// Merge `other` into this map (other wins on conflicts).
  void merge(const AttributeMap& other);

 private:
  [[nodiscard]] const AttributeValue* find(const std::string& name) const;

  /// Sorted by name.  An instance carries a handful of attributes with short
  /// names, so one contiguous buffer replaces a heap node per attribute.
  std::vector<std::pair<std::string, AttributeValue>> values_;
};

}  // namespace rtcm::ccm
