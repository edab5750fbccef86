#include "ccm/instance.h"

#include "util/strings.h"

namespace rtcm::ccm {

const char* to_string(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::kLoadBalancer:
      return "LB";
    case ComponentKind::kAdmissionControl:
      return "AC";
    case ComponentKind::kTaskEffector:
      return "TE";
    case ComponentKind::kIdleResetter:
      return "IR";
    case ComponentKind::kSubtaskFI:
      return "Subtask F/I";
    case ComponentKind::kSubtaskLast:
      return "Subtask Last";
  }
  return "?";
}

std::string InstanceId::to_string() const {
  switch (kind) {
    case ComponentKind::kLoadBalancer:
      return "Central-LB";
    case ComponentKind::kAdmissionControl:
      return "Central-AC";
    case ComponentKind::kTaskEffector:
      return "TE@" + node.to_string();
    case ComponentKind::kIdleResetter:
      return "IR@" + node.to_string();
    case ComponentKind::kSubtaskFI:
    case ComponentKind::kSubtaskLast:
      break;
  }
  return strfmt("T%d_S%u@P%d", task.value(), stage, node.value());
}

const char* to_string(Port port) {
  return port == Port::kLocation ? "Location" : "Complete";
}

bool has_receptacle(ComponentKind kind, Port port) {
  return port == Port::kLocation ? kind == ComponentKind::kAdmissionControl
                                 : is_subtask(kind);
}

bool has_facet(ComponentKind kind, Port port) {
  return kind == (port == Port::kLocation ? ComponentKind::kLoadBalancer
                                          : ComponentKind::kIdleResetter);
}

ComponentConfig default_config(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::kLoadBalancer:
      return LbConfig{};
    case ComponentKind::kAdmissionControl:
      return AcConfig{};
    case ComponentKind::kTaskEffector:
      return TeConfig{};
    case ComponentKind::kIdleResetter:
      return IrConfig{};
    case ComponentKind::kSubtaskFI:
    case ComponentKind::kSubtaskLast:
      break;
  }
  return SubtaskConfig{};
}

bool config_fits(ComponentKind kind, const ComponentConfig& config) {
  return default_config(kind).index() == config.index();
}

}  // namespace rtcm::ccm
