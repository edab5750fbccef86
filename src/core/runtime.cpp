#include "core/runtime.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "config/plan_builder.h"

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
  if (!sched::parse_placement_policy(config.lb_policy).is_ok()) {
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

namespace {

// An injected arrival's timeline payload: the task id in the high half,
// the job id in the low half.  Its target is the arrival TE.
std::uint64_t pack_arrival(TaskId task, JobId job) {
  return std::uint64_t{static_cast<std::uint32_t>(task.value())} << 32 |
         static_cast<std::uint32_t>(job.value());
}

void deliver_arrival(void* te, std::uint64_t payload) {
  static_cast<TaskEffector*>(te)->job_arrived(
      TaskId(static_cast<std::int32_t>(payload >> 32)),
      JobId(static_cast<std::int32_t>(payload & 0xffffffffu)));
}

}  // namespace

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
  sim_.set_arrival_handler(&deliver_arrival);
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
  const auto launched = dance::ExecutionManager::launch(plan, *this);
  if (!launched.is_ok()) return Status::error(launched.message());
  if (Status s = check_components(); !s.is_ok()) return s;
  if (Status s = adopt_drained_nodes(plan); !s.is_ok()) return s;
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
}

Result<ccm::Component*> SystemRuntime::install(
    const dance::InstanceDeployment& instance) {
  using R = Result<ccm::Component*>;
  using Kind = ccm::ComponentKind;
  const ccm::InstanceId& id = instance.id;
  ccm::Container* container = find_container(id.node);
  if (container == nullptr) {
    return R::error("no container available for node " + id.node.to_string());
  }
  // Each kind's component, with the shared state it closes over.
  std::unique_ptr<ccm::Component> component;
  switch (id.kind) {
    case Kind::kLoadBalancer:
      component = std::make_unique<LoadBalancerComponent>();
      break;
    case Kind::kAdmissionControl:
      component = std::make_unique<AdmissionControl>(tasks_, &metrics_);
      break;
    case Kind::kTaskEffector:
      component = std::make_unique<TaskEffector>(tasks_, &metrics_);
      break;
    case Kind::kIdleResetter:
      component = std::make_unique<IdleResetter>();
      break;
    case Kind::kSubtaskFI:
      component = std::make_unique<FirstIntermediateSubtask>(tasks_);
      break;
    case Kind::kSubtaskLast: {
      auto last = std::make_unique<LastSubtask>(tasks_);
      last->set_completion_listener(&metrics_);
      component = std::move(last);
      break;
    }
  }
  ccm::Component* raw = component.get();
  if (Status s = dance::install(*container, instance, std::move(component));
      !s.is_ok()) {
    return R::error(s.message());
  }
  // Keep the typed pointers the accessors hand out.
  switch (id.kind) {
    case Kind::kLoadBalancer:
      lb_ = static_cast<LoadBalancerComponent*>(raw);
      break;
    case Kind::kAdmissionControl:
      ac_ = static_cast<AdmissionControl*>(raw);
      break;
    case Kind::kTaskEffector:
      te_[id.node] = static_cast<TaskEffector*>(raw);
      break;
    case Kind::kIdleResetter:
      ir_[id.node] = static_cast<IdleResetter*>(raw);
      break;
    case Kind::kSubtaskFI:
    case Kind::kSubtaskLast:
      break;
  }
  return raw;
}

ccm::Component* SystemRuntime::find(const ccm::InstanceId& id) {
  ccm::Container* container = find_container(id.node);
  return container == nullptr ? nullptr : container->find(id);
}

Status SystemRuntime::check_components() const {
  if (ac_ == nullptr || ac_->id().node != manager_) {
    return Status::error("no AdmissionControl component on the task manager");
  }
  for (const ProcessorId p : app_processors_) {
    if (te_.count(p) == 0) {
      return Status::error("no TaskEffector on " + p.to_string());
    }
    if (ir_.count(p) == 0) {
      return Status::error("no IdleResetter on " + p.to_string());
    }
  }
  return Status::ok();
}

Status SystemRuntime::adopt_drained_nodes(const dance::DeploymentPlan& plan) {
  const auto hosts_subtask = [&plan](ProcessorId proc) {
    return std::any_of(plan.instances.begin(), plan.instances.end(),
                       [proc](const dance::InstanceDeployment& inst) {
                         return ccm::is_subtask(inst.id.kind) &&
                                inst.id.node == proc;
                       });
  };
  // The common, undrained plan builds no set.
  if (std::all_of(app_processors_.begin(), app_processors_.end(),
                  hosts_subtask)) {
    return Status::ok();
  }
  std::set<ProcessorId> drained;
  for (const ProcessorId p : app_processors_) {
    if (!hosts_subtask(p)) drained.insert(p);
  }
  // Nothing is admitted yet, so the transition only records the set.
  const auto transition = ac_->apply_drain(drained);
  if (!transition.is_ok()) return Status::error(transition.message());
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

Status SystemRuntime::reconfigure_instance(const ccm::InstanceId& id,
                                           const ccm::ComponentConfig& config) {
  ccm::Component* component = find(id);
  if (component == nullptr) {
    return Status::error("reconfigure: no instance '" + id.to_string() +
                         "' on " + id.node.to_string());
  }
  if (Status s = component->configure(config); !s.is_ok()) {
    return Status::error("reconfigure '" + id.to_string() + "': " +
                         s.message());
  }
  return Status::ok();
}

sim::DeferrableServer* SystemRuntime::deferrable_server(ProcessorId proc) {
  const auto it = servers_.find(proc);
  return it == servers_.end() ? nullptr : it->second.get();
}

Status SystemRuntime::inject_arrival(TaskId task, Time at) {
  const Arrival arrival{task, at};
  return inject(std::span(&arrival, 1));
}

Status SystemRuntime::inject_arrivals(const std::vector<Arrival>& arrivals) {
  return inject(arrivals);
}

Status SystemRuntime::inject(std::span<const Arrival> arrivals) {
  if (!assembled_) {
    return Status::error(
        "inject_arrival: runtime is not assembled (call assemble() first)");
  }
  for (const Arrival& a : arrivals) {
    if (tasks_.find(a.task) == nullptr) {
      return Status::error("inject_arrival: unknown task " +
                           a.task.to_string());
    }
    if (a.time < sim_.now()) {
      return Status::error("inject_arrival: " + a.task.to_string() + " at " +
                           a.time.to_string() + " is before now (" +
                           sim_.now().to_string() + ")");
    }
  }
  sim_.inject_arrivals(arrivals.size(), [&](std::size_t i) {
    const Arrival& a = arrivals[i];
    return sim::Simulator::Arrival{a.time, arrival_effector(a.task),
                                   pack_arrival(a.task, JobId(next_job_++))};
  });
  return Status::ok();
}

}  // namespace rtcm::core
