#include "scenario/scenario.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "workload/arrival.h"

namespace rtcm::scenario {

WorkloadSpec WorkloadSpec::generated(workload::WorkloadShape s) {
  WorkloadSpec spec;
  spec.kind = Kind::kGenerated;
  spec.shape = std::move(s);
  return spec;
}

WorkloadSpec WorkloadSpec::explicit_tasks(sched::TaskSet t) {
  WorkloadSpec spec;
  spec.kind = Kind::kExplicit;
  spec.tasks = std::move(t);
  return spec;
}

ArrivalModel ArrivalModel::poisson() { return ArrivalModel{}; }

ArrivalModel ArrivalModel::bursty(workload::BurstShape shape) {
  ArrivalModel model;
  model.kind = Kind::kBursty;
  model.burst = shape;
  return model;
}

ArrivalModel ArrivalModel::explicit_trace(std::vector<core::Arrival> trace) {
  ArrivalModel model;
  model.kind = Kind::kTrace;
  model.trace = std::move(trace);
  return model;
}

ArrivalModel ArrivalModel::none() {
  ArrivalModel model;
  model.kind = Kind::kNone;
  return model;
}

namespace {

/// Upper bounds on a generated shape's counts.  The generator sizes its
/// vectors from these fields, so an absurd count (a typo, or 10^18) would
/// abort the process with std::length_error or std::bad_alloc instead of
/// failing with a Status.  The largest library grid (huge-topology) has
/// 240 tasks of at most 3 subtasks; the paper's shapes use at most 5
/// subtasks.  The bounds sit ~40x and ~12x above those, well past any
/// shape a run on one machine can simulate in useful time.
constexpr std::size_t kMaxShapeTasks = 10000;
constexpr std::size_t kMaxShapeSubtasks = 64;

/// The generator's preconditions as clean errors, so a bad generated-shape
/// spec is refused up front instead of tripping an assert mid-run.
Status validate_shape(const workload::WorkloadShape& shape) {
  if (shape.primary_processors.empty()) {
    return Status::error("workload shape needs at least 1 primary processor");
  }
  // Each count is checked alone first, so the sum below cannot overflow.
  if (shape.periodic_tasks > kMaxShapeTasks ||
      shape.aperiodic_tasks > kMaxShapeTasks ||
      shape.periodic_tasks + shape.aperiodic_tasks > kMaxShapeTasks) {
    return Status::error("workload shape generates more than " +
                         std::to_string(kMaxShapeTasks) + " tasks");
  }
  if (shape.periodic_tasks + shape.aperiodic_tasks == 0) {
    return Status::error("workload shape generates no tasks");
  }
  if (shape.min_subtasks < 1 || shape.max_subtasks < shape.min_subtasks) {
    return Status::error("workload shape subtask range is empty");
  }
  if (shape.max_subtasks > kMaxShapeSubtasks) {
    return Status::error("workload shape allows more than " +
                         std::to_string(kMaxShapeSubtasks) +
                         " subtasks per task");
  }
  if (shape.min_deadline <= Duration::zero() ||
      shape.max_deadline < shape.min_deadline) {
    return Status::error("workload shape deadline range is empty");
  }
  if (shape.per_processor_utilization <= 0.0 ||
      shape.per_processor_utilization >= 1.0) {
    return Status::error(
        "per_processor_utilization must be in (0, 1), got " +
        json::number_to_string(shape.per_processor_utilization));
  }
  if (shape.aperiodic_interarrival_factor <= 0.0) {
    return Status::error("aperiodic_interarrival_factor must be positive");
  }
  return Status::ok();
}

/// Upper bound on bursty arrivals per aperiodic task (bursts x
/// jobs_per_burst).  The arrival trace is materialized up front, so an
/// absurd product (a typo, or 10^15 bursts) would grow memory until the
/// process is killed instead of failing with a Status.  The largest library
/// layout (the burst-overload benchmark's 20 x 8) sits 625x below it.
constexpr std::size_t kMaxBurstJobs = 100000;

Status validate_burst(const workload::BurstShape& burst) {
  // Each factor is checked alone first, so the product cannot overflow.
  if (burst.bursts > kMaxBurstJobs || burst.jobs_per_burst > kMaxBurstJobs ||
      burst.bursts * burst.jobs_per_burst > kMaxBurstJobs) {
    return Status::error("bursty arrivals generate more than " +
                         std::to_string(kMaxBurstJobs) +
                         " jobs per aperiodic task");
  }
  return Status::ok();
}

/// Upper bound on the arrivals one run materializes.  A Poisson or bursty
/// trace is generated whole before the first event, so a horizon far past
/// the release gaps (10^18 us over 250 ms deadlines) would grow memory for
/// minutes and end in std::bad_alloc instead of failing with a Status.
/// The largest checked-in scenario, library grid (at its own horizon or the
/// nightly 100 s) or end-to-end workload estimates 96,240 arrivals
/// (huge-topology at 100 s); the bound sits ~100x above that, at ~160 MB of
/// trace.
constexpr double kMaxTraceArrivals = 1e7;

/// The trace size from the horizon and the smallest release gap: periods
/// (equal to deadlines in a generated shape) and Poisson mean interarrivals.
/// Bursty aperiodic tasks add their burst jobs instead.
Status validate_trace_size(const ScenarioSpec& spec) {
  const bool poisson = spec.arrivals.kind == ArrivalModel::Kind::kPoisson;
  std::size_t periodic = 0;
  std::size_t aperiodic = 0;
  Duration min_gap = Duration::max();
  if (spec.workload.kind == WorkloadSpec::Kind::kGenerated) {
    const workload::WorkloadShape& shape = spec.workload.shape;
    periodic = shape.periodic_tasks;
    aperiodic = shape.aperiodic_tasks;
    if (periodic > 0) min_gap = shape.min_deadline;
    if (poisson && aperiodic > 0) {
      min_gap = std::min(
          min_gap,
          shape.min_deadline.scaled(shape.aperiodic_interarrival_factor));
    }
  } else {
    for (const sched::TaskSpec& task : spec.workload.tasks.tasks()) {
      if (task.kind == sched::TaskKind::kPeriodic) {
        ++periodic;
        min_gap = std::min(min_gap, task.period);
      } else {
        ++aperiodic;
        if (poisson) min_gap = std::min(min_gap, task.mean_interarrival);
      }
    }
  }
  const std::size_t gap_tasks = poisson ? periodic + aperiodic : periodic;
  if (gap_tasks > 0 && min_gap <= Duration::zero()) {
    return Status::error("arrival trace needs positive release gaps, got " +
                         min_gap.to_string());
  }
  double arrivals =
      gap_tasks == 0 ? 0.0
                     : static_cast<double>(gap_tasks) *
                           (spec.horizon.ratio(min_gap) + 1.0);
  if (!poisson) {
    arrivals += static_cast<double>(aperiodic) *
                static_cast<double>(spec.arrivals.burst.bursts *
                                    spec.arrivals.burst.jobs_per_burst);
  }
  if (arrivals > kMaxTraceArrivals) {
    return Status::error("arrival trace over a " + spec.horizon.to_string() +
                         " horizon would hold ~" +
                         json::number_to_string(arrivals) +
                         " arrivals, more than " +
                         json::number_to_string(kMaxTraceArrivals));
  }
  return Status::ok();
}

/// Largest integer the JSON number form (IEEE double) represents exactly;
/// seeds beyond it would come back changed from a round trip.
constexpr std::uint64_t kMaxJsonExactInt = 1ull << 53;

Status validate_seed(std::uint64_t seed, const char* field) {
  if (seed > kMaxJsonExactInt) {
    return Status::error(std::string(field) +
                         " exceeds 2^53 and would not survive the JSON "
                         "round trip");
  }
  return Status::ok();
}

}  // namespace

Status validate(const ScenarioSpec& spec) {
  if (spec.name.empty()) {
    return Status::error("scenario name must not be empty");
  }
  if (Status s = validate_seed(spec.seed, "seed"); !s.is_ok()) return s;
  if (Status s = validate_seed(spec.config.comm_jitter_seed,
                               "comm_jitter_seed");
      !s.is_ok()) {
    return s;
  }
  if (Status s = validate_seed(spec.config.lb_seed, "lb_seed"); !s.is_ok()) {
    return s;
  }
  if (spec.horizon <= Duration::zero()) {
    return Status::error("scenario horizon must be positive, got " +
                         spec.horizon.to_string());
  }
  if (spec.drain.is_negative()) {
    return Status::error("scenario drain must be non-negative, got " +
                         spec.drain.to_string());
  }
  if (Status s = core::validate_config(spec.config); !s.is_ok()) return s;
  if (spec.workload.kind == WorkloadSpec::Kind::kGenerated) {
    if (Status s = validate_shape(spec.workload.shape); !s.is_ok()) return s;
  } else if (spec.workload.tasks.empty()) {
    return Status::error("explicit workload has no tasks");
  }
  if (spec.arrivals.kind == ArrivalModel::Kind::kBursty) {
    if (Status s = validate_burst(spec.arrivals.burst); !s.is_ok()) return s;
  }
  if (spec.arrivals.kind == ArrivalModel::Kind::kPoisson ||
      spec.arrivals.kind == ArrivalModel::Kind::kBursty) {
    if (Status s = validate_trace_size(spec); !s.is_ok()) return s;
  }
  for (const config::ModeChange& change : spec.reconfig) {
    if (change.strategies.has_value() && !change.strategies->valid()) {
      return Status::error("reconfig step '" + change.label +
                           "' swaps to invalid strategy combination " +
                           change.strategies->label() + ": " +
                           change.strategies->invalid_reason());
    }
  }
  return Status::ok();
}

Result<ScenarioResult> run_scenario(const ScenarioSpec& spec) {
  const auto started = std::chrono::steady_clock::now();
  if (Status s = validate(spec); !s.is_ok()) {
    return Result<ScenarioResult>::error(s.message());
  }

  // One seed, forked per concern: the workload consumes the root stream, the
  // arrival trace gets fork(1) — the exact discipline the sweep engine has
  // used since PR 2, so spec-driven runs are byte-identical to it.
  Rng rng(spec.seed);
  sched::TaskSet tasks = spec.workload.kind == WorkloadSpec::Kind::kGenerated
                             ? workload::generate_workload(spec.workload.shape,
                                                           rng)
                             : spec.workload.tasks;

  ScenarioResult result;
  result.runtime =
      std::make_unique<core::SystemRuntime>(spec.config, std::move(tasks));
  core::SystemRuntime& runtime = *result.runtime;
  if (Status s = runtime.assemble(); !s.is_ok()) {
    return Result<ScenarioResult>::error(s.message());
  }

  // The reconfiguration axis: scripts are scheduled before the arrivals so
  // same-instant ties resolve identically on every run.  The manager lands
  // in the result: steps past the horizon and deferred quiesce events stay
  // valid if the caller keeps driving the returned runtime.
  if (!spec.reconfig.empty()) {
    result.reconfig_manager =
        std::make_unique<reconfig::ReconfigurationManager>(runtime);
    if (Status s = result.reconfig_manager->schedule_script(spec.reconfig);
        !s.is_ok()) {
      return Result<ScenarioResult>::error(s.message());
    }
  }

  Rng arrival_rng = rng.fork(1);
  const Time horizon = Time::epoch() + spec.horizon;
  std::vector<core::Arrival> arrivals;
  switch (spec.arrivals.kind) {
    case ArrivalModel::Kind::kPoisson:
      arrivals =
          workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng);
      break;
    case ArrivalModel::Kind::kBursty:
      arrivals = workload::generate_bursty_arrivals(
          runtime.tasks(), horizon, spec.arrivals.burst, arrival_rng);
      break;
    case ArrivalModel::Kind::kTrace:
      arrivals = spec.arrivals.trace;
      break;
    case ArrivalModel::Kind::kNone:
      break;
  }
  if (Status s = runtime.inject_arrivals(arrivals); !s.is_ok()) {
    return Result<ScenarioResult>::error(s.message());
  }
  runtime.run_until(horizon + spec.drain);

  if (result.reconfig_manager) {
    result.reconfig_applied = result.reconfig_manager->applied_count();
    result.reconfig_rejected = result.reconfig_manager->rejected_count();
    result.reconfig_history = result.reconfig_manager->history();
  }
  const core::MetricsCollector& metrics = runtime.metrics();
  result.accept_ratio = metrics.accepted_utilization_ratio();
  result.deadline_misses = metrics.total().deadline_misses;
  result.arrivals = metrics.total().arrivals;
  result.releases = metrics.total().releases;
  result.completions = metrics.total().completions;
  result.rejections = metrics.total().rejections;
  OnlineStats response;
  for (const auto& [task, tm] : metrics.per_task()) {
    if (runtime.tasks().find(task)->kind == sched::TaskKind::kAperiodic) {
      response.merge(tm.response_ms);
    }
  }
  result.aperiodic_response_ms = response.count() > 0 ? response.mean() : 0.0;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  return result;
}

}  // namespace rtcm::scenario
