// Typed identity, ports and configuration of the middleware's component
// instances (paper Figure 3).
//
// An instance is identified by what it is and where it runs: its kind, its
// node and, for Subtask instances, the task and stage it executes.  String
// ids ("Central-AC", "TE@P3", "T3_S2@P4") are rendered from these fields for
// XML, traces and diagnostics only.
//
// Each kind takes one configuration struct, the typed form of the
// configProperties the deployment plan carries (the Configurator /
// set_configuration path of Figure 4).  Default values are the ones a plan
// gets when it leaves a property out.  A connection wires a receptacle to the
// facet of the same port on another instance; which kind has which port is
// fixed here.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "core/strategies.h"
#include "sched/ds_admission.h"
#include "sched/load_balancer.h"
#include "util/ids.h"
#include "util/priority.h"
#include "util/time.h"

namespace rtcm::ccm {

enum class ComponentKind {
  kLoadBalancer,
  kAdmissionControl,
  kTaskEffector,
  kIdleResetter,
  kSubtaskFI,    // First/Intermediate stage
  kSubtaskLast,  // final stage
};

/// "LB", "AC", "TE", "IR", "Subtask F/I", "Subtask Last".
[[nodiscard]] const char* to_string(ComponentKind kind);

[[nodiscard]] constexpr bool is_subtask(ComponentKind kind) {
  return kind == ComponentKind::kSubtaskFI ||
         kind == ComponentKind::kSubtaskLast;
}

struct InstanceId {
  constexpr InstanceId() = default;
  /// An instance of `kind` not yet placed on a node.
  constexpr explicit InstanceId(ComponentKind k) : kind(k) {}
  constexpr InstanceId(ComponentKind k, ProcessorId n, TaskId t = TaskId(),
                       std::uint32_t s = 0)
      : kind(k), node(n), task(t), stage(s) {}

  ComponentKind kind = ComponentKind::kLoadBalancer;
  ProcessorId node;
  /// Subtask instances only; invalid / 0 for the other kinds.
  TaskId task;
  std::uint32_t stage = 0;

  [[nodiscard]] bool operator==(const InstanceId&) const = default;
  [[nodiscard]] auto operator<=>(const InstanceId&) const = default;

  /// "Central-LB", "Central-AC", "TE@P3", "IR@P3" or "T3_S2@P4".
  [[nodiscard]] std::string to_string() const;
};

/// A port names one facet interface; a connection wires the receptacle of
/// that port on its source to the facet of that port on its target.
enum class Port {
  kLocation,  // AC receptacle -> LB facet (LocationService)
  kComplete,  // Subtask receptacle -> IR facet (CompletionSink)
};

[[nodiscard]] const char* to_string(Port port);
[[nodiscard]] bool has_receptacle(ComponentKind kind, Port port);
[[nodiscard]] bool has_facet(ComponentKind kind, Port port);

// --- Configuration, one struct per kind --------------------------------------

struct LbConfig {
  sched::PlacementPolicy policy = sched::PlacementPolicy::kLowestUtilization;
  /// Seeds the random-replica policy.
  std::uint64_t seed = 1;

  [[nodiscard]] bool operator==(const LbConfig&) const = default;
};

struct AcConfig {
  core::AcStrategy ac = core::AcStrategy::kPerTask;
  core::LbStrategy lb = core::LbStrategy::kNone;
  core::AperiodicAnalysis analysis = core::AperiodicAnalysis::kAub;
  /// Used when analysis is the deferrable server.
  sched::DsServerConfig ds;

  [[nodiscard]] bool operator==(const AcConfig&) const = default;
};

struct TeConfig {
  core::TeMode mode = core::TeMode::kPerJob;

  [[nodiscard]] bool operator==(const TeConfig&) const = default;
};

struct IrConfig {
  core::IrStrategy strategy = core::IrStrategy::kNone;

  [[nodiscard]] bool operator==(const IrConfig&) const = default;
};

/// Both Subtask kinds; the task and stage are part of the identity.
struct SubtaskConfig {
  /// Required: the stage's WCET, positive.
  Duration execution = Duration::zero();
  /// Required: the task's EDMS level.
  Priority priority;
  /// Which completions are reported to the node's IR.
  core::IrStrategy ir_mode = core::IrStrategy::kNone;

  [[nodiscard]] bool operator==(const SubtaskConfig&) const = default;
};

using ComponentConfig =
    std::variant<LbConfig, AcConfig, TeConfig, IrConfig, SubtaskConfig>;

/// The config a component of `kind` takes, default-valued.
[[nodiscard]] ComponentConfig default_config(ComponentKind kind);

/// Whether `config` is the struct `kind` takes.
[[nodiscard]] bool config_fits(ComponentKind kind,
                               const ComponentConfig& config);

}  // namespace rtcm::ccm
