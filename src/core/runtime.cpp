#include "core/runtime.h"

#include <algorithm>
#include <cassert>

#include "util/strings.h"

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
    : config_(std::move(config)), tasks_(std::move(tasks)) {
  if (config_.enable_trace) trace_.enable();
  register_component_types();
}

std::string SystemRuntime::ac_attr(AcStrategy s) {
  return s == AcStrategy::kPerTask ? "PT" : "PJ";
}

std::string SystemRuntime::ir_attr(IrStrategy s) {
  switch (s) {
    case IrStrategy::kNone:
      return "N";
    case IrStrategy::kPerTask:
      return "PT";
    case IrStrategy::kPerJob:
      return "PJ";
  }
  return "N";
}

std::string SystemRuntime::lb_attr(LbStrategy s) {
  switch (s) {
    case LbStrategy::kNone:
      return "N";
    case LbStrategy::kPerTask:
      return "PT";
    case LbStrategy::kPerJob:
      return "PJ";
  }
  return "N";
}

std::string SystemRuntime::te_mode(const StrategyCombination& s) {
  const bool immediate =
      s.ac == AcStrategy::kPerTask && s.lb != LbStrategy::kPerJob;
  return immediate ? "PT" : "PJ";
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

Status SystemRuntime::assemble_infrastructure() {
  if (network_) return Status::error("infrastructure already assembled");
  if (Status s = validate_config(config_); !s.is_ok()) return s;
  if (tasks_.empty()) return Status::error("task set is empty");

  app_processors_ = tasks_.processors();
  std::int32_t max_id = 0;
  for (const ProcessorId p : app_processors_) {
    max_id = std::max(max_id, p.value());
  }
  manager_ = config_.task_manager.value_or(ProcessorId(max_id + 1));
  if (std::find(app_processors_.begin(), app_processors_.end(), manager_) !=
      app_processors_.end()) {
    return Status::error("task manager " + manager_.to_string() +
                         " collides with an application processor");
  }

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
  return Status::ok();
}

Status SystemRuntime::bind_components() {
  ccm::Container& manager = *containers_.at(manager_);
  for (const std::string& name : manager.instance_names()) {
    ccm::Component* c = manager.find(name);
    if (auto* ac = dynamic_cast<AdmissionControl*>(c)) ac_ = ac;
    if (auto* lb = dynamic_cast<LoadBalancerComponent*>(c)) lb_ = lb;
  }
  if (ac_ == nullptr) {
    return Status::error("no AdmissionControl component on the task manager");
  }
  for (const ProcessorId p : app_processors_) {
    ccm::Container& container = *containers_.at(p);
    for (const std::string& name : container.instance_names()) {
      ccm::Component* c = container.find(name);
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

Status SystemRuntime::finalize_deployment() {
  if (assembled_) return Status::error("runtime already assembled");
  if (!network_) {
    return Status::error("assemble_infrastructure() must run before "
                         "finalize_deployment()");
  }
  if (Status s = bind_components(); !s.is_ok()) return s;
  if (Status s = activate_containers(); !s.is_ok()) return s;
  assembled_ = true;
  return Status::ok();
}

Status SystemRuntime::assemble() {
  if (assembled_) return Status::error("runtime already assembled");
  if (Status s = assemble_infrastructure(); !s.is_ok()) return s;
  if (Status s = install_manager_components(); !s.is_ok()) return s;
  if (Status s = install_application_components(); !s.is_ok()) return s;
  return finalize_deployment();
}

Status SystemRuntime::install_manager_components() {
  ccm::Container& manager = *containers_.at(manager_);

  auto lb = factory_.create(LoadBalancerComponent::kTypeName, manager_);
  if (!lb.is_ok()) return Status::error(lb.message());
  lb_ = static_cast<LoadBalancerComponent*>(lb.value().get());
  ccm::AttributeMap lb_attrs;
  lb_attrs.set_string(LoadBalancerComponent::kPolicyAttr, config_.lb_policy);
  lb_attrs.set_int(LoadBalancerComponent::kSeedAttr,
                   static_cast<std::int64_t>(config_.lb_seed));
  if (Status s = lb_->configure(lb_attrs); !s.is_ok()) return s;
  if (Status s = manager.install("Central-LB", std::move(lb).value());
      !s.is_ok()) {
    return s;
  }

  auto ac = factory_.create(AdmissionControl::kTypeName, manager_);
  if (!ac.is_ok()) return Status::error(ac.message());
  ac_ = static_cast<AdmissionControl*>(ac.value().get());
  ccm::AttributeMap ac_attrs;
  ac_attrs.set_string(AdmissionControl::kAcStrategyAttr,
                      ac_attr(config_.strategies.ac));
  ac_attrs.set_string(AdmissionControl::kLbStrategyAttr,
                      lb_attr(config_.strategies.lb));
  if (config_.analysis == AperiodicAnalysis::kDeferrableServer) {
    ac_attrs.set_string(AdmissionControl::kAnalysisAttr, "DS");
    ac_attrs.set_duration(AdmissionControl::kDsBudgetAttr,
                          config_.ds_server.budget);
    ac_attrs.set_duration(AdmissionControl::kDsPeriodAttr,
                          config_.ds_server.period);
    // Budget the measured one-way event delay per middleware hop unless the
    // deployment overrides it explicitly.
    const Duration hop = config_.ds_server.hop_overhead.is_zero()
                             ? config_.comm_latency
                             : config_.ds_server.hop_overhead;
    ac_attrs.set_duration(AdmissionControl::kDsHopOverheadAttr, hop);
  }
  if (Status s = ac_->configure(ac_attrs); !s.is_ok()) return s;
  if (Status s = ac_->connect_receptacle("Location", lb_->facet("Location"));
      !s.is_ok()) {
    return s;
  }
  if (Status s = manager.install("Central-AC", std::move(ac).value());
      !s.is_ok()) {
    return s;
  }
  return Status::ok();
}

Status SystemRuntime::install_application_components() {
  const std::string te_mode_value = te_mode(config_.strategies);
  const std::string ir_value = ir_attr(config_.strategies.ir);

  for (const ProcessorId p : app_processors_) {
    ccm::Container& container = *containers_.at(p);

    auto te = factory_.create(TaskEffector::kTypeName, p);
    if (!te.is_ok()) return Status::error(te.message());
    te_[p] = static_cast<TaskEffector*>(te.value().get());
    ccm::AttributeMap te_attrs;
    te_attrs.set_string(TaskEffector::kModeAttr, te_mode_value);
    te_attrs.set_int("ProcessorID", p.value());
    if (Status s = te_[p]->configure(te_attrs); !s.is_ok()) return s;
    if (Status s = container.install("TE@" + p.to_string(),
                                     std::move(te).value());
        !s.is_ok()) {
      return s;
    }

    auto ir = factory_.create(IdleResetter::kTypeName, p);
    if (!ir.is_ok()) return Status::error(ir.message());
    ir_[p] = static_cast<IdleResetter*>(ir.value().get());
    ccm::AttributeMap ir_attrs;
    ir_attrs.set_string(IdleResetter::kStrategyAttr, ir_value);
    ir_attrs.set_int("ProcessorID", p.value());
    if (Status s = ir_[p]->configure(ir_attrs); !s.is_ok()) return s;
    if (Status s = container.install("IR@" + p.to_string(),
                                     std::move(ir).value());
        !s.is_ok()) {
      return s;
    }
  }

  // Subtask component instances: one per (task, stage, hosting processor).
  for (const sched::TaskSpec& task : tasks_.tasks()) {
    const Priority priority = priorities_.at(task.id);
    for (std::size_t j = 0; j < task.subtasks.size(); ++j) {
      const sched::SubtaskSpec& st = task.subtasks[j];
      const bool last = (j + 1 == task.subtasks.size());
      for (const ProcessorId host : st.candidates()) {
        const std::string type =
            last ? LastSubtask::kTypeName : FirstIntermediateSubtask::kTypeName;
        auto component = factory_.create(type, host);
        if (!component.is_ok()) return Status::error(component.message());

        ccm::AttributeMap attrs;
        attrs.set_int(SubtaskComponentBase::kTaskAttr, task.id.value());
        attrs.set_int(SubtaskComponentBase::kStageAttr,
                      static_cast<std::int64_t>(j));
        attrs.set_duration(SubtaskComponentBase::kExecutionAttr, st.execution);
        attrs.set_int(SubtaskComponentBase::kPriorityAttr, priority.level());
        attrs.set_string(SubtaskComponentBase::kIrModeAttr,
                         ir_attr(config_.strategies.ir));
        if (Status s = component.value()->configure(attrs); !s.is_ok()) {
          return s;
        }
        if (Status s = component.value()->connect_receptacle(
                "Complete", ir_.at(host)->facet("Complete"));
            !s.is_ok()) {
          return s;
        }
        const std::string name =
            strfmt("T%d_S%zu@P%d", task.id.value(), j, host.value());
        if (Status s = containers_.at(host)->install(
                name, std::move(component).value());
            !s.is_ok()) {
          return s;
        }
      }
    }
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
