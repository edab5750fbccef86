#include "core/strategies.h"

#include "util/strings.h"

namespace rtcm::core {

const char* to_string(AcStrategy s) {
  return s == AcStrategy::kPerTask ? "AC per Task" : "AC per Job";
}

const char* to_string(IrStrategy s) {
  switch (s) {
    case IrStrategy::kNone:
      return "No IR";
    case IrStrategy::kPerTask:
      return "IR per Task";
    case IrStrategy::kPerJob:
      return "IR per Job";
  }
  return "?";
}

const char* to_string(LbStrategy s) {
  switch (s) {
    case LbStrategy::kNone:
      return "No LB";
    case LbStrategy::kPerTask:
      return "LB per Task";
    case LbStrategy::kPerJob:
      return "LB per Job";
  }
  return "?";
}

char label(AcStrategy s) { return s == AcStrategy::kPerTask ? 'T' : 'J'; }

char label(IrStrategy s) {
  switch (s) {
    case IrStrategy::kNone:
      return 'N';
    case IrStrategy::kPerTask:
      return 'T';
    case IrStrategy::kPerJob:
      return 'J';
  }
  return '?';
}

char label(LbStrategy s) {
  switch (s) {
    case LbStrategy::kNone:
      return 'N';
    case LbStrategy::kPerTask:
      return 'T';
    case LbStrategy::kPerJob:
      return 'J';
  }
  return '?';
}

TeMode te_mode(const StrategyCombination& s) {
  const bool immediate =
      s.ac == AcStrategy::kPerTask && s.lb != LbStrategy::kPerJob;
  return immediate ? TeMode::kPerTask : TeMode::kPerJob;
}

bool StrategyCombination::valid() const {
  return !(ac == AcStrategy::kPerTask && ir == IrStrategy::kPerJob);
}

std::string StrategyCombination::invalid_reason() const {
  if (valid()) return {};
  return "AC per Task requires the admission controller to keep the synthetic "
         "utilization of accepted periodic tasks reserved, but IR per Job "
         "removes completed periodic subjobs' contributions; the requirements "
         "are contradictory (paper Section 4.5)";
}

std::string StrategyCombination::label() const {
  std::string out;
  out += core::label(ac);
  out += '_';
  out += core::label(ir);
  out += '_';
  out += core::label(lb);
  return out;
}

Result<StrategyCombination> StrategyCombination::parse(
    const std::string& text) {
  const auto parts = split(to_lower(trim(text)), '_');
  if (parts.size() != 3 || parts[0].size() != 1 || parts[1].size() != 1 ||
      parts[2].size() != 1) {
    return Result<StrategyCombination>::error(
        "strategy label must look like 'T_N_J', got '" + text + "'");
  }
  StrategyCombination combo;
  switch (parts[0][0]) {
    case 't':
      combo.ac = AcStrategy::kPerTask;
      break;
    case 'j':
      combo.ac = AcStrategy::kPerJob;
      break;
    default:
      return Result<StrategyCombination>::error(
          "AC strategy must be T or J in '" + text + "'");
  }
  switch (parts[1][0]) {
    case 'n':
      combo.ir = IrStrategy::kNone;
      break;
    case 't':
      combo.ir = IrStrategy::kPerTask;
      break;
    case 'j':
      combo.ir = IrStrategy::kPerJob;
      break;
    default:
      return Result<StrategyCombination>::error(
          "IR strategy must be N, T or J in '" + text + "'");
  }
  switch (parts[2][0]) {
    case 'n':
      combo.lb = LbStrategy::kNone;
      break;
    case 't':
      combo.lb = LbStrategy::kPerTask;
      break;
    case 'j':
      combo.lb = LbStrategy::kPerJob;
      break;
    default:
      return Result<StrategyCombination>::error(
          "LB strategy must be N, T or J in '" + text + "'");
  }
  return combo;
}

std::vector<StrategyCombination> all_combinations() {
  static constexpr std::array<AcStrategy, 2> kAc = {AcStrategy::kPerTask,
                                                    AcStrategy::kPerJob};
  static constexpr std::array<IrStrategy, 3> kIr = {
      IrStrategy::kNone, IrStrategy::kPerTask, IrStrategy::kPerJob};
  static constexpr std::array<LbStrategy, 3> kLb = {
      LbStrategy::kNone, LbStrategy::kPerTask, LbStrategy::kPerJob};
  std::vector<StrategyCombination> out;
  out.reserve(18);
  for (AcStrategy ac : kAc) {
    for (IrStrategy ir : kIr) {
      for (LbStrategy lb : kLb) {
        out.push_back(StrategyCombination{ac, ir, lb});
      }
    }
  }
  return out;
}

std::vector<StrategyCombination> valid_combinations() {
  std::vector<StrategyCombination> out;
  out.reserve(15);
  for (const StrategyCombination& c : all_combinations()) {
    if (c.valid()) out.push_back(c);
  }
  return out;
}

}  // namespace rtcm::core
