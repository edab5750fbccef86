// Component factory: maps deployment-plan type names to constructors.
//
// The DAnCE NodeApplication looks implementations up here by the type string
// in the plan ("rtcm.AdmissionControl", "rtcm.TaskEffector", ...).  The
// runtime registers creators that close over whatever shared state the
// concrete components need, which keeps this registry free of domain
// knowledge (the "component repository" of Figure 4).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ccm/component.h"
#include "util/ids.h"
#include "util/inline_fn.h"
#include "util/result.h"

namespace rtcm::ccm {

class ComponentFactory {
 public:
  /// Creator runs once per instance; receives the target processor so
  /// per-node components can bind to it.  Captures up to two pointers are
  /// stored inline.
  using Creator =
      InlineFunction<std::unique_ptr<Component>(ProcessorId node), 16>;

  [[nodiscard]] Status register_type(const std::string& type_name,
                                     Creator creator);

  [[nodiscard]] bool knows(const std::string& type_name) const;

  /// Not const: a creator may carry state.
  [[nodiscard]] Result<std::unique_ptr<Component>> create(
      const std::string& type_name, ProcessorId node);

  [[nodiscard]] std::vector<std::string> type_names() const;

 private:
  std::map<std::string, Creator> creators_;
};

}  // namespace rtcm::ccm
