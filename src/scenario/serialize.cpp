// Deterministic JSON round trip for ScenarioSpec.
//
// Canonical form: every field is always emitted, in a fixed key order, with
// util/json's shortest-round-trip number rendering — so equal specs
// serialize to equal bytes and serialize -> parse -> serialize is a fixed
// point (the property scenario_test pins).  Parsing is strict about types
// but tolerant of absent optional sections, so hand-written specs stay
// short.
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.h"

namespace rtcm::scenario {

namespace {

json::Value ids_to_json(const std::vector<ProcessorId>& ids) {
  json::Value out = json::Value::array();
  for (const ProcessorId id : ids) out.push_back(id.value());
  return out;
}

Result<std::vector<ProcessorId>> ids_from_json(const json::Value& v,
                                               const char* field) {
  using R = Result<std::vector<ProcessorId>>;
  if (!v.is_array()) return R::error(std::string(field) + ": expected array");
  std::vector<ProcessorId> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!v.at(i).is_number()) {
      return R::error(std::string(field) + ": expected processor ids");
    }
    out.push_back(ProcessorId(static_cast<std::int32_t>(v.at(i).as_int())));
  }
  return out;
}

/// A count field of `v`, `fallback` when absent.  Negative values are
/// refused: the cast to size_t would turn -1 into SIZE_MAX.
Result<std::size_t> count_from_json(const json::Value& v, const char* field,
                                    std::size_t fallback) {
  const std::int64_t count =
      v.get(field).as_int(static_cast<std::int64_t>(fallback));
  if (count < 0) {
    return Result<std::size_t>::error(std::string(field) +
                                      " must be non-negative, got " +
                                      std::to_string(count));
  }
  return static_cast<std::size_t>(count);
}

json::Value config_to_json(const core::SystemConfig& config) {
  json::Value out = json::Value::object();
  out.set("strategies", config.strategies.label());
  out.set("comm_latency_us", config.comm_latency.usec());
  out.set("comm_jitter_us", config.comm_jitter.usec());
  out.set("comm_jitter_seed", config.comm_jitter_seed);
  out.set("loopback_latency_us", config.loopback_latency.usec());
  out.set("lb_policy", config.lb_policy);
  out.set("lb_seed", config.lb_seed);
  out.set("enable_trace", config.enable_trace);
  out.set("task_manager", config.task_manager.has_value()
                              ? json::Value(config.task_manager->value())
                              : json::Value());
  out.set("analysis",
          config.analysis == core::AperiodicAnalysis::kAub ? "AUB" : "DS");
  out.set("ds_budget_us", config.ds_server.budget.usec());
  out.set("ds_period_us", config.ds_server.period.usec());
  out.set("ds_hop_overhead_us", config.ds_server.hop_overhead.usec());
  return out;
}

Result<core::SystemConfig> config_from_json(const json::Value& v) {
  using R = Result<core::SystemConfig>;
  if (!v.is_object()) return R::error("config: expected object");
  core::SystemConfig config;
  const auto combo =
      core::StrategyCombination::parse(v.get("strategies").as_string());
  if (!combo.is_ok()) return R::error("config.strategies: " + combo.message());
  config.strategies = combo.value();
  config.comm_latency =
      Duration(v.get("comm_latency_us").as_int(config.comm_latency.usec()));
  config.comm_jitter = Duration(v.get("comm_jitter_us").as_int());
  config.comm_jitter_seed =
      static_cast<std::uint64_t>(v.get("comm_jitter_seed").as_int(1));
  config.loopback_latency = Duration(v.get("loopback_latency_us").as_int());
  if (v.get("lb_policy").is_string()) {
    config.lb_policy = v.get("lb_policy").as_string();
  }
  config.lb_seed = static_cast<std::uint64_t>(v.get("lb_seed").as_int(1));
  config.enable_trace = v.get("enable_trace").as_bool();
  if (v.get("task_manager").is_number()) {
    config.task_manager =
        ProcessorId(static_cast<std::int32_t>(v.get("task_manager").as_int()));
  }
  const std::string& analysis = v.get("analysis").as_string();
  if (analysis == "DS") {
    config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  } else if (analysis == "AUB" || analysis.empty()) {
    config.analysis = core::AperiodicAnalysis::kAub;
  } else {
    return R::error("config.analysis: expected AUB or DS, got '" + analysis +
                    "'");
  }
  config.ds_server.budget =
      Duration(v.get("ds_budget_us").as_int(config.ds_server.budget.usec()));
  config.ds_server.period =
      Duration(v.get("ds_period_us").as_int(config.ds_server.period.usec()));
  config.ds_server.hop_overhead =
      Duration(v.get("ds_hop_overhead_us").as_int());
  return config;
}

json::Value shape_to_json(const workload::WorkloadShape& shape) {
  json::Value out = json::Value::object();
  out.set("primary_processors", ids_to_json(shape.primary_processors));
  out.set("replica_processors", ids_to_json(shape.replica_processors));
  out.set("periodic_tasks", static_cast<std::int64_t>(shape.periodic_tasks));
  out.set("aperiodic_tasks",
          static_cast<std::int64_t>(shape.aperiodic_tasks));
  out.set("min_subtasks", static_cast<std::int64_t>(shape.min_subtasks));
  out.set("max_subtasks", static_cast<std::int64_t>(shape.max_subtasks));
  out.set("min_deadline_us", shape.min_deadline.usec());
  out.set("max_deadline_us", shape.max_deadline.usec());
  out.set("per_processor_utilization", shape.per_processor_utilization);
  out.set("replicate", shape.replicate);
  out.set("aperiodic_interarrival_factor",
          shape.aperiodic_interarrival_factor);
  return out;
}

Result<workload::WorkloadShape> shape_from_json(const json::Value& v) {
  using R = Result<workload::WorkloadShape>;
  if (!v.is_object()) return R::error("workload.shape: expected object");
  workload::WorkloadShape shape;
  auto primaries =
      ids_from_json(v.get("primary_processors"), "primary_processors");
  if (!primaries.is_ok()) return R::error(primaries.message());
  shape.primary_processors = std::move(primaries).value();
  auto replicas =
      ids_from_json(v.get("replica_processors"), "replica_processors");
  if (!replicas.is_ok()) return R::error(replicas.message());
  shape.replica_processors = std::move(replicas).value();
  // Absent counts keep WorkloadShape's defaults.
  for (auto [field, count] :
       {std::pair{"periodic_tasks", &shape.periodic_tasks},
        std::pair{"aperiodic_tasks", &shape.aperiodic_tasks},
        std::pair{"min_subtasks", &shape.min_subtasks},
        std::pair{"max_subtasks", &shape.max_subtasks}}) {
    auto parsed = count_from_json(v, field, *count);
    if (!parsed.is_ok()) return R::error("workload.shape." + parsed.message());
    *count = parsed.value();
  }
  shape.min_deadline =
      Duration(v.get("min_deadline_us").as_int(shape.min_deadline.usec()));
  shape.max_deadline =
      Duration(v.get("max_deadline_us").as_int(shape.max_deadline.usec()));
  shape.per_processor_utilization =
      v.get("per_processor_utilization").as_double(0.5);
  shape.replicate = v.get("replicate").as_bool(true);
  shape.aperiodic_interarrival_factor =
      v.get("aperiodic_interarrival_factor").as_double(1.0);
  return shape;
}

json::Value task_to_json(const sched::TaskSpec& task) {
  json::Value out = json::Value::object();
  out.set("id", task.id.value());
  out.set("name", task.name);
  out.set("kind", sched::to_string(task.kind));
  out.set("deadline_us", task.deadline.usec());
  out.set("period_us", task.period.usec());
  out.set("mean_interarrival_us", task.mean_interarrival.usec());
  json::Value subtasks = json::Value::array();
  for (const sched::SubtaskSpec& st : task.subtasks) {
    json::Value stage = json::Value::object();
    stage.set("execution_us", st.execution.usec());
    stage.set("primary", st.primary.value());
    stage.set("replicas", ids_to_json(st.replicas));
    subtasks.push_back(std::move(stage));
  }
  out.set("subtasks", std::move(subtasks));
  return out;
}

Result<sched::TaskSpec> task_from_json(const json::Value& v) {
  using R = Result<sched::TaskSpec>;
  if (!v.is_object()) return R::error("task: expected object");
  sched::TaskSpec task;
  task.id = TaskId(static_cast<std::int32_t>(v.get("id").as_int()));
  task.name = v.get("name").as_string();
  const std::string& kind = v.get("kind").as_string();
  if (kind == "periodic") {
    task.kind = sched::TaskKind::kPeriodic;
  } else if (kind == "aperiodic") {
    task.kind = sched::TaskKind::kAperiodic;
  } else {
    return R::error("task.kind: expected periodic or aperiodic, got '" +
                    kind + "'");
  }
  task.deadline = Duration(v.get("deadline_us").as_int());
  task.period = Duration(v.get("period_us").as_int());
  task.mean_interarrival = Duration(v.get("mean_interarrival_us").as_int());
  const json::Value& subtasks = v.get("subtasks");
  if (!subtasks.is_array()) return R::error("task.subtasks: expected array");
  for (std::size_t i = 0; i < subtasks.size(); ++i) {
    const json::Value& stage = subtasks.at(i);
    sched::SubtaskSpec st;
    st.execution = Duration(stage.get("execution_us").as_int());
    st.primary =
        ProcessorId(static_cast<std::int32_t>(stage.get("primary").as_int()));
    auto replicas = ids_from_json(stage.get("replicas"), "replicas");
    if (!replicas.is_ok()) return R::error(replicas.message());
    st.replicas = std::move(replicas).value();
    task.subtasks.push_back(std::move(st));
  }
  return task;
}

json::Value workload_to_json(const WorkloadSpec& workload) {
  json::Value out = json::Value::object();
  if (workload.kind == WorkloadSpec::Kind::kGenerated) {
    out.set("kind", "generated");
    out.set("shape", shape_to_json(workload.shape));
  } else {
    out.set("kind", "explicit");
    json::Value tasks = json::Value::array();
    for (const sched::TaskSpec& task : workload.tasks.tasks()) {
      tasks.push_back(task_to_json(task));
    }
    out.set("tasks", std::move(tasks));
  }
  return out;
}

Result<WorkloadSpec> workload_from_json(const json::Value& v) {
  using R = Result<WorkloadSpec>;
  if (!v.is_object()) return R::error("workload: expected object");
  const std::string& kind = v.get("kind").as_string();
  if (kind == "generated") {
    auto shape = shape_from_json(v.get("shape"));
    if (!shape.is_ok()) return R::error(shape.message());
    return WorkloadSpec::generated(std::move(shape).value());
  }
  if (kind == "explicit") {
    const json::Value& tasks = v.get("tasks");
    if (!tasks.is_array()) return R::error("workload.tasks: expected array");
    sched::TaskSet set;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      auto task = task_from_json(tasks.at(i));
      if (!task.is_ok()) return R::error(task.message());
      if (Status s = set.add(std::move(task).value()); !s.is_ok()) {
        return R::error("workload.tasks[" + std::to_string(i) +
                        "]: " + s.message());
      }
    }
    return WorkloadSpec::explicit_tasks(std::move(set));
  }
  return R::error("workload.kind: expected generated or explicit, got '" +
                  kind + "'");
}

json::Value arrivals_to_json(const ArrivalModel& model) {
  json::Value out = json::Value::object();
  switch (model.kind) {
    case ArrivalModel::Kind::kPoisson:
      out.set("kind", "poisson");
      break;
    case ArrivalModel::Kind::kBursty:
      out.set("kind", "bursty");
      out.set("bursts", static_cast<std::int64_t>(model.burst.bursts));
      out.set("jobs_per_burst",
              static_cast<std::int64_t>(model.burst.jobs_per_burst));
      out.set("intra_gap_us", model.burst.intra_gap.usec());
      out.set("inter_gap_us", model.burst.inter_gap.usec());
      out.set("start_us", model.burst.start.usec());
      break;
    case ArrivalModel::Kind::kTrace: {
      out.set("kind", "trace");
      json::Value trace = json::Value::array();
      for (const core::Arrival& a : model.trace) {
        json::Value entry = json::Value::object();
        entry.set("task", a.task.value());
        entry.set("at_us", a.time.usec());
        trace.push_back(std::move(entry));
      }
      out.set("trace", std::move(trace));
      break;
    }
    case ArrivalModel::Kind::kNone:
      out.set("kind", "none");
      break;
  }
  return out;
}

Result<ArrivalModel> arrivals_from_json(const json::Value& v) {
  using R = Result<ArrivalModel>;
  if (v.is_null()) return ArrivalModel::poisson();
  if (!v.is_object()) return R::error("arrivals: expected object");
  const std::string& kind = v.get("kind").as_string();
  if (kind == "poisson" || kind.empty()) return ArrivalModel::poisson();
  if (kind == "none") return ArrivalModel::none();
  if (kind == "bursty") {
    workload::BurstShape burst;
    for (auto [field, count] :
         {std::pair{"bursts", &burst.bursts},
          std::pair{"jobs_per_burst", &burst.jobs_per_burst}}) {
      auto parsed = count_from_json(v, field, *count);
      if (!parsed.is_ok()) return R::error("arrivals." + parsed.message());
      *count = parsed.value();
    }
    burst.intra_gap =
        Duration(v.get("intra_gap_us").as_int(burst.intra_gap.usec()));
    burst.inter_gap =
        Duration(v.get("inter_gap_us").as_int(burst.inter_gap.usec()));
    burst.start = Time(v.get("start_us").as_int());
    return ArrivalModel::bursty(burst);
  }
  if (kind == "trace") {
    const json::Value& trace = v.get("trace");
    if (!trace.is_array()) return R::error("arrivals.trace: expected array");
    std::vector<core::Arrival> out;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const json::Value& entry = trace.at(i);
      out.push_back(core::Arrival{
          TaskId(static_cast<std::int32_t>(entry.get("task").as_int())),
          Time(entry.get("at_us").as_int())});
    }
    return ArrivalModel::explicit_trace(std::move(out));
  }
  return R::error("arrivals.kind: unknown arrival model '" + kind + "'");
}

json::Value reconfig_to_json(const std::vector<config::ModeChange>& script) {
  json::Value out = json::Value::array();
  for (const config::ModeChange& change : script) {
    json::Value entry = json::Value::object();
    entry.set("at_us", change.at.usec());
    entry.set("label", change.label);
    entry.set("strategies", change.strategies.has_value()
                                ? json::Value(change.strategies->label())
                                : json::Value());
    entry.set("lb_policy", change.lb_policy.has_value()
                               ? json::Value(*change.lb_policy)
                               : json::Value());
    entry.set("drain", ids_to_json(change.drain));
    entry.set("undrain", ids_to_json(change.undrain));
    out.push_back(std::move(entry));
  }
  return out;
}

Result<std::vector<config::ModeChange>> reconfig_from_json(
    const json::Value& v) {
  using R = Result<std::vector<config::ModeChange>>;
  std::vector<config::ModeChange> script;
  if (v.is_null()) return script;
  if (!v.is_array()) return R::error("reconfig: expected array");
  for (std::size_t i = 0; i < v.size(); ++i) {
    const json::Value& entry = v.at(i);
    if (!entry.is_object()) {
      return R::error("reconfig[" + std::to_string(i) + "]: expected object");
    }
    config::ModeChange change;
    change.at = Time(entry.get("at_us").as_int());
    change.label = entry.get("label").as_string();
    if (entry.get("strategies").is_string()) {
      const auto combo = core::StrategyCombination::parse(
          entry.get("strategies").as_string());
      if (!combo.is_ok()) {
        return R::error("reconfig[" + std::to_string(i) +
                        "].strategies: " + combo.message());
      }
      change.strategies = combo.value();
    }
    if (entry.get("lb_policy").is_string()) {
      change.lb_policy = entry.get("lb_policy").as_string();
    }
    auto drain = ids_from_json(entry.get("drain"), "drain");
    if (!drain.is_ok()) return R::error(drain.message());
    change.drain = std::move(drain).value();
    auto undrain = ids_from_json(entry.get("undrain"), "undrain");
    if (!undrain.is_ok()) return R::error(undrain.message());
    change.undrain = std::move(undrain).value();
    script.push_back(std::move(change));
  }
  return script;
}

}  // namespace

json::Value to_json(const ScenarioSpec& spec) {
  json::Value out = json::Value::object();
  out.set("schema_version", kScenarioSchemaVersion);
  out.set("name", spec.name);
  out.set("seed", spec.seed);
  out.set("horizon_us", spec.horizon.usec());
  out.set("drain_us", spec.drain.usec());
  out.set("config", config_to_json(spec.config));
  out.set("workload", workload_to_json(spec.workload));
  out.set("arrivals", arrivals_to_json(spec.arrivals));
  out.set("reconfig", reconfig_to_json(spec.reconfig));
  return out;
}

Result<ScenarioSpec> spec_from_json(const json::Value& v) {
  using R = Result<ScenarioSpec>;
  if (!v.is_object()) return R::error("scenario spec: expected object");
  if (v.get("schema_version").as_int() != kScenarioSchemaVersion) {
    return R::error("scenario spec: unsupported schema_version");
  }
  ScenarioSpec spec;
  spec.name = v.get("name").as_string();
  spec.seed = static_cast<std::uint64_t>(v.get("seed").as_int(1));
  spec.horizon = Duration(v.get("horizon_us").as_int(spec.horizon.usec()));
  spec.drain = Duration(v.get("drain_us").as_int(spec.drain.usec()));
  auto config = config_from_json(v.get("config"));
  if (!config.is_ok()) return R::error(config.message());
  spec.config = std::move(config).value();
  auto workload = workload_from_json(v.get("workload"));
  if (!workload.is_ok()) return R::error(workload.message());
  spec.workload = std::move(workload).value();
  auto arrivals = arrivals_from_json(v.get("arrivals"));
  if (!arrivals.is_ok()) return R::error(arrivals.message());
  spec.arrivals = std::move(arrivals).value();
  auto reconfig = reconfig_from_json(v.get("reconfig"));
  if (!reconfig.is_ok()) return R::error(reconfig.message());
  spec.reconfig = std::move(reconfig).value();
  return spec;
}

Result<ScenarioSpec> spec_from_text(const std::string& text) {
  const auto parsed = json::Value::parse(text);
  if (!parsed.is_ok()) {
    return Result<ScenarioSpec>::error(parsed.message());
  }
  return spec_from_json(parsed.value());
}

}  // namespace rtcm::scenario
