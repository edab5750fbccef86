// SystemRuntime: assembles and drives one complete middleware deployment.
//
// This is the paper's deployment (Figure 1): a central task manager
// processor hosting the AC and LB components, and one TE + IR per
// application processor, plus F/I and Last Subtask component instances on
// every primary and replica processor of every task.  All of it runs on the
// discrete-event simulator, so experiments are deterministic.
//
// There is one deployment path, the DAnCE one (src/dance, paper §6): the
// runtime builds the infrastructure its SystemConfig describes (processors,
// containers, network, DS servers), then launches a typed deployment plan
// into it through ExecutionManager, as that plan's DeploymentTarget: each
// instance is created by a switch on its kind, configured and installed,
// and the runtime keeps the typed pointers it creates.  assemble() launches
// the plan that config::build_deployment_plan builds for the runtime's own
// configuration; assemble(plan) launches a given one, e.g. parsed from XML.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ccm/container.h"
#include "core/admission_control.h"
#include "core/idle_resetter.h"
#include "core/load_balancer_component.h"
#include "core/metrics.h"
#include "core/strategies.h"
#include "core/subtask_component.h"
#include "core/task_effector.h"
#include "dance/engine.h"
#include "sched/task.h"
#include "sim/deferrable_server.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace rtcm::core {

struct SystemConfig {
  StrategyCombination strategies{};
  /// One-way network latency between distinct processors.
  Duration comm_latency = sim::Network::kPaperOneWayDelay;
  /// Optional per-message uniform jitter added on top of comm_latency
  /// (zero = the constant model).
  Duration comm_jitter = Duration::zero();
  std::uint64_t comm_jitter_seed = 1;
  /// Latency for co-located event deliveries.
  Duration loopback_latency = Duration::zero();
  /// Load-balancer placement policy ("lowest-util" | "primary" | "random").
  std::string lb_policy = "lowest-util";
  std::uint64_t lb_seed = 1;
  bool enable_trace = false;
  /// Task manager processor; defaults to (max application processor id + 1).
  std::optional<ProcessorId> task_manager;
  /// Aperiodic schedulability analysis: AUB (the paper's focus) or the
  /// deferrable-server alternative (§2).  DS deploys one server per
  /// application processor with `ds_server` parameters.
  AperiodicAnalysis analysis = AperiodicAnalysis::kAub;
  sched::DsServerConfig ds_server{};
};

/// Validate a SystemConfig before any component is built: rejects invalid
/// strategy combinations, negative latencies/jitter, unknown load-balancer
/// policies and malformed deferrable-server parameters with a descriptive
/// error.  Both assemble() forms run this first, so a bad configuration can
/// never silently misbehave mid-simulation.
[[nodiscard]] Status validate_config(const SystemConfig& config);

/// One externally-driven job arrival.
struct Arrival {
  TaskId task;
  Time time;
};

class SystemRuntime final : public dance::DeploymentTarget {
 public:
  /// The configuration must hold a valid strategy combination; assemble()
  /// rejects invalid ones (the configuration engine's job is to never
  /// produce them in the first place).
  SystemRuntime(SystemConfig config, sched::TaskSet tasks);

  // --- Assembly -------------------------------------------------------------
  //
  // Either form runs once per runtime: it builds the infrastructure, launches
  // the plan (create -> set_configuration -> install -> wire ports), checks
  // that the AC, LB, TEs and IRs it created are where they belong, and
  // activates every container, the task manager's first.  A failed assembly
  // leaves the runtime unusable.

  /// Deploy this runtime's own configuration: the plan
  /// config::build_deployment_plan builds for config() and tasks().
  [[nodiscard]] Status assemble();
  /// Deploy `plan`.  Its AC must sit on task_manager() and every application
  /// processor needs a TE and an IR; processors, network and DS servers
  /// still come from config().  An application processor hosting no Subtask
  /// instance is drained: the AC learns so before activation and places no
  /// job there.
  [[nodiscard]] Status assemble(const dance::DeploymentPlan& plan);
  [[nodiscard]] bool assembled() const { return assembled_; }
  /// The plan this runtime launched; empty until assembled.
  [[nodiscard]] const dance::DeploymentPlan& plan() const { return plan_; }

  // --- Driving -------------------------------------------------------------

  /// Schedule a job arrival; ids are assigned in injection order.  Errors
  /// (runtime not assembled, unknown task) are reported instead of UB.
  [[nodiscard]] Status inject_arrival(TaskId task, Time at);
  /// Inject a whole trace; stops at the first rejected arrival.
  [[nodiscard]] Status inject_arrivals(const std::vector<Arrival>& arrivals);
  void run_until(Time horizon) { sim_.run_until(horizon); }
  void run_for(Duration d) { sim_.run_until(sim_.now() + d); }

  // --- Access --------------------------------------------------------------

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] sim::Network& network() { return *network_; }
  [[nodiscard]] events::FederatedEventChannel& federation() {
    return *federation_;
  }
  [[nodiscard]] const sched::TaskSet& tasks() const { return tasks_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] MetricsCollector& metrics() { return metrics_; }
  [[nodiscard]] const MetricsCollector& metrics() const { return metrics_; }

  [[nodiscard]] ProcessorId task_manager() const { return manager_; }
  [[nodiscard]] const std::vector<ProcessorId>& app_processors() const {
    return app_processors_;
  }
  [[nodiscard]] ccm::Container& container(ProcessorId proc);
  /// Null when the processor is unknown (safe form for plan resolvers).
  [[nodiscard]] ccm::Container* find_container(ProcessorId proc);
  [[nodiscard]] sim::Processor& processor(ProcessorId proc);

  [[nodiscard]] AdmissionControl* admission_control() { return ac_; }
  [[nodiscard]] LoadBalancerComponent* load_balancer() { return lb_; }
  [[nodiscard]] TaskEffector* task_effector(ProcessorId proc);
  [[nodiscard]] IdleResetter* idle_resetter(ProcessorId proc);
  /// The TE where jobs of `task` arrive (the first stage's primary host);
  /// null for unknown tasks.
  [[nodiscard]] TaskEffector* arrival_effector(TaskId task);
  /// Null unless DS analysis is configured.
  [[nodiscard]] sim::DeferrableServer* deferrable_server(ProcessorId proc);

  // --- Deployment target (dance::ExecutionManager, src/reconfig) ----------

  /// Create the instance's component by kind, configure it and install it
  /// into its node's container: the one install path of assemble() and of
  /// the reconfiguration manager's build-up.
  [[nodiscard]] Result<ccm::Component*> install(
      const dance::InstanceDeployment& instance) override;
  [[nodiscard]] ccm::Component* find(const ccm::InstanceId& id) override;

  /// Apply a new config to one live (or quiesced) installed instance — the
  /// incremental form of the deployment set_configuration path.  Errors
  /// name the instance.
  [[nodiscard]] Status reconfigure_instance(const ccm::InstanceId& id,
                                            const ccm::ComponentConfig& config);

  /// Record the strategy combination and LB placement policy now in force,
  /// so config() keeps describing the live system after a mode change
  /// swapped them.
  void note_active_strategies(const StrategyCombination& strategies,
                              const std::string& lb_policy) {
    config_.strategies = strategies;
    config_.lb_policy = lb_policy;
  }

 private:
  /// Refuse a second assembly, an invalid config or an empty task set.
  [[nodiscard]] Status check_assemblable() const;
  /// Build infrastructure, launch `plan`, bind, activate; keeps the plan.
  [[nodiscard]] Status deploy(dance::DeploymentPlan plan);
  /// Build network, federation, processors, DS servers and containers.
  void build_infrastructure();
  /// Check that the launch created the AC on the task manager and a TE and
  /// an IR on every application processor.
  [[nodiscard]] Status check_components() const;
  /// Tell the AC which application processors `plan` drains (hosts no
  /// Subtask instance on), so no placement uses them.
  [[nodiscard]] Status adopt_drained_nodes(const dance::DeploymentPlan& plan);
  [[nodiscard]] Status activate_containers();

  SystemConfig config_;
  sched::TaskSet tasks_;
  // Order matters for destruction: the simulator and trace outlive
  // everything that schedules against them.
  sim::Simulator sim_;
  sim::Trace trace_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<events::FederatedEventChannel> federation_;
  MetricsCollector metrics_;

  ProcessorId manager_;
  std::vector<ProcessorId> app_processors_;
  std::map<ProcessorId, std::unique_ptr<sim::Processor>> cpus_;
  std::map<ProcessorId, std::unique_ptr<sim::DeferrableServer>> servers_;
  std::map<ProcessorId, std::unique_ptr<ccm::Container>> containers_;
  dance::DeploymentPlan plan_;

  // The typed components install() created.
  AdmissionControl* ac_ = nullptr;
  LoadBalancerComponent* lb_ = nullptr;
  std::map<ProcessorId, TaskEffector*> te_;
  std::map<ProcessorId, IdleResetter*> ir_;

  std::int32_t next_job_ = 0;
  bool assembled_ = false;
};

}  // namespace rtcm::core
