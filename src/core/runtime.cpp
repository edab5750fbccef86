#include "core/runtime.h"

#include <algorithm>
#include <cassert>

#include "config/plan_builder.h"
#include "dance/engine.h"

namespace rtcm::core {

Status validate_config(const SystemConfig& config) {
  if (!config.strategies.valid()) {
    return Status::error("invalid strategy combination " +
                         config.strategies.label() + ": " +
                         config.strategies.invalid_reason());
  }
  if (config.comm_latency.is_negative()) {
    return Status::error("comm_latency must be non-negative, got " +
                         config.comm_latency.to_string());
  }
  if (config.comm_jitter.is_negative()) {
    return Status::error("comm_jitter must be non-negative, got " +
                         config.comm_jitter.to_string());
  }
  if (config.loopback_latency.is_negative()) {
    return Status::error("loopback_latency must be non-negative, got " +
                         config.loopback_latency.to_string());
  }
  if (config.lb_policy != "lowest-util" && config.lb_policy != "primary" &&
      config.lb_policy != "random") {
    return Status::error(
        "unknown lb_policy '" + config.lb_policy +
        "' (expected lowest-util | primary | random)");
  }
  if (config.analysis == AperiodicAnalysis::kDeferrableServer) {
    if (config.ds_server.budget <= Duration::zero()) {
      return Status::error("DS server budget must be positive, got " +
                           config.ds_server.budget.to_string());
    }
    if (config.ds_server.period <= Duration::zero()) {
      return Status::error("DS server period must be positive, got " +
                           config.ds_server.period.to_string());
    }
    if (config.ds_server.budget > config.ds_server.period) {
      return Status::error("DS server budget " +
                           config.ds_server.budget.to_string() +
                           " exceeds its period " +
                           config.ds_server.period.to_string());
    }
    if (config.ds_server.hop_overhead.is_negative()) {
      return Status::error("DS hop_overhead must be non-negative, got " +
                           config.ds_server.hop_overhead.to_string());
    }
  }
  return Status::ok();
}

SystemRuntime::SystemRuntime(SystemConfig config, sched::TaskSet tasks)
    : config_(std::move(config)),
      tasks_(std::move(tasks)),
      app_processors_(tasks_.processors()) {
  std::int32_t max_id = 0;
  for (const ProcessorId p : app_processors_) {
    max_id = std::max(max_id, p.value());
  }
  manager_ = config_.task_manager.value_or(ProcessorId(max_id + 1));
  if (config_.enable_trace) trace_.enable();
  register_component_types();
}

void SystemRuntime::register_component_types() {
  // Creators close over the runtime; per-instance configuration arrives via
  // configProperties (attributes), matching the paper's deployment flow.
  (void)factory_.register_type(
      TaskEffector::kTypeName, [this](ProcessorId) {
        return std::make_unique<TaskEffector>(tasks_, &metrics_);
      });
  (void)factory_.register_type(
      AdmissionControl::kTypeName, [this](ProcessorId) {
        return std::make_unique<AdmissionControl>(tasks_, &metrics_,
                                                  &admission_arena_);
      });
  (void)factory_.register_type(
      LoadBalancerComponent::kTypeName,
      [](ProcessorId) { return std::make_unique<LoadBalancerComponent>(); });
  (void)factory_.register_type(
      IdleResetter::kTypeName,
      [](ProcessorId) { return std::make_unique<IdleResetter>(); });
  (void)factory_.register_type(
      FirstIntermediateSubtask::kTypeName, [this](ProcessorId) {
        return std::make_unique<FirstIntermediateSubtask>(tasks_);
      });
  (void)factory_.register_type(
      LastSubtask::kTypeName, [this](ProcessorId) {
        auto component = std::make_unique<LastSubtask>(tasks_);
        component->set_completion_listener(&metrics_);
        return component;
      });
}

Status SystemRuntime::check_assemblable() const {
  if (assembled_) return Status::error("runtime already assembled");
  if (network_) {
    return Status::error(
        "runtime assembly already failed once; build a new runtime");
  }
  if (Status s = validate_config(config_); !s.is_ok()) return s;
  if (tasks_.empty()) return Status::error("task set is empty");
  if (std::find(app_processors_.begin(), app_processors_.end(), manager_) !=
      app_processors_.end()) {
    return Status::error("task manager " + manager_.to_string() +
                         " collides with an application processor");
  }
  return Status::ok();
}

Status SystemRuntime::assemble() {
  if (Status s = check_assemblable(); !s.is_ok()) return s;
  auto plan = config::build_deployment_plan(
      config::plan_input(config_, tasks_, manager_));
  if (!plan.is_ok()) return Status::error(plan.message());
  return deploy(std::move(plan).value());
}

Status SystemRuntime::assemble(const dance::DeploymentPlan& plan) {
  if (Status s = check_assemblable(); !s.is_ok()) return s;
  return deploy(plan);
}

Status SystemRuntime::deploy(dance::DeploymentPlan plan) {
  build_infrastructure();
  const auto launched = dance::ExecutionManager().launch(
      plan, [this](ProcessorId node) { return find_container(node); },
      factory_);
  if (!launched.is_ok()) return Status::error(launched.message());
  if (Status s = bind_components(); !s.is_ok()) return s;
  if (Status s = activate_containers(); !s.is_ok()) return s;
  plan_ = std::move(plan);
  assembled_ = true;
  return Status::ok();
}

void SystemRuntime::build_infrastructure() {
  std::unique_ptr<sim::LatencyModel> latency_model;
  if (config_.comm_jitter.is_zero()) {
    latency_model = std::make_unique<sim::ConstantLatency>(
        config_.comm_latency, config_.loopback_latency);
  } else {
    latency_model = std::make_unique<sim::UniformJitterLatency>(
        config_.comm_latency, config_.comm_jitter, config_.comm_jitter_seed,
        config_.loopback_latency);
  }
  network_ = std::make_unique<sim::Network>(sim_, std::move(latency_model));
  federation_ =
      std::make_unique<events::FederatedEventChannel>(sim_, *network_);

  std::vector<ProcessorId> all = app_processors_;
  all.push_back(manager_);
  const bool ds_mode = config_.analysis == AperiodicAnalysis::kDeferrableServer;
  for (const ProcessorId p : all) {
    cpus_.emplace(p, std::make_unique<sim::Processor>(sim_, p));
    sim::DeferrableServer* server = nullptr;
    if (ds_mode && p != manager_) {
      sim::DeferrableServerParams params;
      params.budget = config_.ds_server.budget;
      params.period = config_.ds_server.period;
      params.priority = Priority(-1);  // above every EDMS level
      auto owned = std::make_unique<sim::DeferrableServer>(sim_, *cpus_.at(p),
                                                           params);
      owned->start();
      server = owned.get();
      servers_.emplace(p, std::move(owned));
    }
    containers_.emplace(
        p, std::make_unique<ccm::Container>(ccm::ContainerContext{
               sim_, *network_, *federation_, *cpus_.at(p), trace_, p,
               server}));
  }

  priorities_ = sched::assign_edms_priorities(tasks_);
}

Status SystemRuntime::bind_components() {
  for (ccm::Component* c : containers_.at(manager_)->components()) {
    if (auto* ac = dynamic_cast<AdmissionControl*>(c)) ac_ = ac;
    if (auto* lb = dynamic_cast<LoadBalancerComponent*>(c)) lb_ = lb;
  }
  if (ac_ == nullptr) {
    return Status::error("no AdmissionControl component on the task manager");
  }
  for (const ProcessorId p : app_processors_) {
    for (ccm::Component* c : containers_.at(p)->components()) {
      if (auto* te = dynamic_cast<TaskEffector*>(c)) te_[p] = te;
      if (auto* ir = dynamic_cast<IdleResetter*>(c)) ir_[p] = ir;
    }
    if (te_.count(p) == 0) {
      return Status::error("no TaskEffector on " + p.to_string());
    }
    if (ir_.count(p) == 0) {
      return Status::error("no IdleResetter on " + p.to_string());
    }
  }
  return Status::ok();
}

Status SystemRuntime::activate_containers() {
  // Activate the manager first so the AC is subscribed before any TE pushes.
  if (Status s = containers_.at(manager_)->activate_all(); !s.is_ok()) {
    return s;
  }
  for (const ProcessorId p : app_processors_) {
    if (Status s = containers_.at(p)->activate_all(); !s.is_ok()) return s;
  }
  return Status::ok();
}

ccm::Container& SystemRuntime::container(ProcessorId proc) {
  assert(containers_.count(proc) > 0);
  return *containers_.at(proc);
}

ccm::Container* SystemRuntime::find_container(ProcessorId proc) {
  const auto it = containers_.find(proc);
  return it == containers_.end() ? nullptr : it->second.get();
}

sim::Processor& SystemRuntime::processor(ProcessorId proc) {
  assert(cpus_.count(proc) > 0);
  return *cpus_.at(proc);
}

TaskEffector* SystemRuntime::task_effector(ProcessorId proc) {
  const auto it = te_.find(proc);
  return it == te_.end() ? nullptr : it->second;
}

IdleResetter* SystemRuntime::idle_resetter(ProcessorId proc) {
  const auto it = ir_.find(proc);
  return it == ir_.end() ? nullptr : it->second;
}

TaskEffector* SystemRuntime::arrival_effector(TaskId task) {
  const sched::TaskSpec* spec = tasks_.find(task);
  if (spec == nullptr || spec->subtasks.empty()) return nullptr;
  return task_effector(spec->subtasks.front().primary);
}

Status SystemRuntime::reconfigure_instance(
    ProcessorId node, const std::string& instance,
    const ccm::AttributeMap& properties) {
  ccm::Container* container = find_container(node);
  if (container == nullptr) {
    return Status::error("reconfigure: unknown node " + node.to_string());
  }
  ccm::Component* component = container->find(instance);
  if (component == nullptr) {
    return Status::error("reconfigure: no instance '" + instance + "' on " +
                         node.to_string());
  }
  if (Status s = component->configure(properties); !s.is_ok()) {
    return Status::error("reconfigure '" + instance + "': " + s.message());
  }
  return Status::ok();
}

sim::DeferrableServer* SystemRuntime::deferrable_server(ProcessorId proc) {
  const auto it = servers_.find(proc);
  return it == servers_.end() ? nullptr : it->second.get();
}

Status SystemRuntime::inject_arrival(TaskId task, Time at) {
  if (!assembled_) {
    return Status::error(
        "inject_arrival: runtime is not assembled (call assemble() first)");
  }
  const sched::TaskSpec* spec = tasks_.find(task);
  if (spec == nullptr) {
    return Status::error("inject_arrival: unknown task " + task.to_string());
  }
  const ProcessorId arrival_proc = spec->subtasks.front().primary;
  TaskEffector* te = te_.at(arrival_proc);
  const JobId job(next_job_++);
  sim_.schedule_at(at, [te, task, job] { te->job_arrived(task, job); });
  return Status::ok();
}

Status SystemRuntime::inject_arrivals(const std::vector<Arrival>& arrivals) {
  for (const Arrival& a : arrivals) {
    if (Status s = inject_arrival(a.task, a.time); !s.is_ok()) return s;
  }
  return Status::ok();
}

}  // namespace rtcm::core
