#include "core/admission_control.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "ccm/container.h"
#include "sim/trace.h"
#include "util/strings.h"

namespace rtcm::core {

using events::AcceptPayload;
using events::EventType;
using events::IdleResetPayload;
using events::RejectPayload;
using events::TaskArrivePayload;

AdmissionControl::AdmissionControl(const sched::TaskSet& tasks,
                                   MetricsCollector* metrics)
    : Component(ccm::ComponentKind::kAdmissionControl),
      tasks_(tasks),
      metrics_(metrics) {}

Status AdmissionControl::connect(ccm::Port port, ccm::Component& provider) {
  if (port == ccm::Port::kLocation) return bind(location_, port, provider);
  return Component::connect(port, provider);
}

Status AdmissionControl::on_configure(const ccm::ComponentConfig& config) {
  const auto& ac = std::get<ccm::AcConfig>(config);
  ac_ = ac.ac;
  lb_ = ac.lb;
  // Runtime reconfiguration may swap the strategy attributes freely, but the
  // analysis (and a live DS server's parameters) carry admission state that
  // cannot be rebuilt mid-run; switching them on a live AC is refused.
  const bool live =
      ccm::Component::state() == ccm::LifecycleState::kActive ||
      ccm::Component::state() == ccm::LifecycleState::kPassivated;
  if (ac.analysis == AperiodicAnalysis::kAub) {
    if (live && analysis_ != AperiodicAnalysis::kAub) {
      return Status::error(
          "cannot switch a live AC from DS to AUB analysis");
    }
    analysis_ = AperiodicAnalysis::kAub;
    ds_.reset();
  } else {
    const sched::DsServerConfig& ds_config = ac.ds;
    if (ds_config.budget <= Duration::zero() ||
        ds_config.period < ds_config.budget ||
        ds_config.hop_overhead.is_negative()) {
      return Status::error("DS server needs 0 < budget <= period and "
                           "hop overhead >= 0");
    }
    if (live) {
      if (analysis_ != AperiodicAnalysis::kDeferrableServer) {
        return Status::error(
            "cannot switch a live AC from AUB to DS analysis");
      }
      if (ds_->config() != ds_config) {
        return Status::error(
            "cannot retune a live AC's DS server parameters");
      }
      // Keep ds_ (it holds the live backlog).
    } else {
      analysis_ = AperiodicAnalysis::kDeferrableServer;
      ds_.emplace(ds_config);
    }
  }
  return Status::ok();
}

Status AdmissionControl::on_activate() {
  if (lb_ != LbStrategy::kNone && location_ == nullptr) {
    return Status::error(
        "AC configured with load balancing but the 'Location' receptacle is "
        "not connected");
  }
  if (analysis_ == AperiodicAnalysis::kDeferrableServer) {
    // The servers' worst-case interference on periodic work is reserved as
    // permanent background utilization on every application processor (the
    // servers themselves are not subject to Equation 1).
    const double interference = ds_->config().periodic_interference();
    if (interference >= 1.0) {
      return Status::error(
          "DS server interference (2*B/P) saturates the processors");
    }
    for (const ProcessorId proc : tasks_.processors()) {
      state_.add_background(proc, interference);
    }
  }
  auto& channel = context().local_channel();
  channel.subscribe(EventType::kTaskArrive, [this](const events::Event& e) {
    handle_task_arrive(events::payload_as<TaskArrivePayload>(e));
  });
  channel.subscribe(EventType::kIdleReset, [this](const events::Event& e) {
    handle_idle_reset(events::payload_as<IdleResetPayload>(e));
  });
  return Status::ok();
}

events::Placement AdmissionControl::primaries(const sched::TaskSpec& spec) {
  events::Placement out(spec.subtasks.size());
  for (std::size_t j = 0; j < spec.subtasks.size(); ++j) {
    out[j] = spec.subtasks[j].primary;
  }
  return out;
}

events::Placement AdmissionControl::propose(
    const sched::TaskSpec& spec) {
  if (location_ == nullptr) return primaries(spec);
  return location_->propose_placement(spec, state_.ledger());
}

events::Placement AdmissionControl::drain_adjusted(
    const sched::TaskSpec& spec, events::Placement placement) const {
  if (drained_.empty()) return placement;
  for (std::size_t j = 0; j < placement.size(); ++j) {
    if (drained_.count(placement[j]) == 0) continue;
    ProcessorId best;
    double best_util = 0.0;
    // Candidates in order: the primary, then the replicas.
    const auto consider = [&](ProcessorId cand) {
      if (drained_.count(cand) > 0) return;
      const double u = state_.ledger().total(cand);
      if (!best.valid() || u < best_util) {
        best = cand;
        best_util = u;
      }
    };
    consider(spec.subtasks[j].primary);
    for (const ProcessorId cand : spec.subtasks[j].replicas) consider(cand);
    if (!best.valid()) return {};  // stage has no live candidate
    placement[j] = best;
  }
  return placement;
}

events::Placement AdmissionControl::placement_for(
    const sched::TaskSpec& spec) {
  switch (lb_) {
    case LbStrategy::kNone:
      return drain_adjusted(spec, primaries(spec));
    case LbStrategy::kPerTask: {
      // Periodic tasks are assigned once, at first arrival; aperiodic jobs
      // are placed at their single job arrival time (paper §4.4/§5).
      if (spec.kind != sched::TaskKind::kPeriodic) {
        return drain_adjusted(spec, propose(spec));
      }
      const auto it = plans_.find(spec.id);
      if (it != plans_.end()) return it->second;
      auto placement = drain_adjusted(spec, propose(spec));
      // An unplaceable arrival (every candidate of some stage drained) is
      // not frozen: the task gets a fresh placement once nodes return.
      if (!placement.empty()) plans_.emplace(spec.id, placement);
      return placement;
    }
    case LbStrategy::kPerJob:
      return drain_adjusted(spec, propose(spec));
  }
  return drain_adjusted(spec, primaries(spec));
}

sched::AdmissionDecision AdmissionControl::test(
    const sched::TaskSpec& spec, const events::Placement& placement) {
  stages_.clear();
  for (std::size_t j = 0; j < placement.size(); ++j) {
    stages_.push_back({placement[j], spec.subtask_utilization(j)});
  }
  ++counters_.admission_tests;
  const auto decision = state_.admission_index().admission_test(
      state_.ledger(), spec.id, stages_);
  context().trace.record_lazy(
      context().sim.now(), sim::TraceKind::kAdmissionTest,
      context().processor, spec.id, JobId(), [&decision] {
        return strfmt("lhs=%.3f %s", decision.candidate_lhs,
                      decision.admitted ? "pass" : "fail");
      });
  return decision;
}

void AdmissionControl::maybe_move_reservation(const sched::TaskSpec& spec) {
  const auto reservation = state_.reservation(spec.id);
  assert(reservation.has_value());
  const events::Placement fresh = drain_adjusted(spec, propose(spec));
  if (fresh.empty() || std::ranges::equal(fresh, reservation->placement)) {
    return;
  }
  // Release, test the new placement against the remaining load, and keep
  // whichever placement is admissible (the old one always is: re-reserving
  // it re-adds the units it released, restoring every ledger total
  // exactly).
  const events::Placement old_placement = state_.release_reservation(spec);
  if (test(spec, fresh).admitted) {
    state_.reserve_task(spec, fresh);
    ++counters_.reservation_moves;
  } else {
    state_.reserve_task(spec, old_placement);
  }
}

void AdmissionControl::accept(const sched::TaskSpec& spec,
                              const TaskArrivePayload& a,
                              events::Placement placement,
                              bool task_admitted) {
  ++counters_.admits;
  const Time absolute_deadline = a.arrival_time + spec.deadline;
  context().trace.record({context().sim.now(), sim::TraceKind::kJobAdmitted,
                          context().processor, spec.id, a.job, ""});
  context().federation.push(
      context().processor,
      AcceptPayload{spec.id, a.job, a.arrival_processor, std::move(placement),
                    absolute_deadline, task_admitted});
}

void AdmissionControl::reject(const TaskArrivePayload& a) {
  ++counters_.rejects;
  context().federation.push(
      context().processor,
      RejectPayload{a.task, a.job, a.arrival_processor});
}

void AdmissionControl::handle_ds_aperiodic(const sched::TaskSpec& spec,
                                           const TaskArrivePayload& a) {
  events::Placement placement = placement_for(spec);
  if (placement.empty()) {
    ++counters_.drain_unplaceable;
    reject(a);
    return;
  }
  ++counters_.admission_tests;
  const std::span<const Duration> bounds =
      ds_->stage_bounds(spec, placement);
  const Duration bound = ds_->end_to_end_bound(bounds);
  const bool admitted = bound <= spec.deadline;
  context().trace.record_lazy(
      context().sim.now(), sim::TraceKind::kAdmissionTest,
      context().processor, spec.id, JobId(), [&bound, admitted] {
        return strfmt("ds-bound=%s %s", bound.to_string().c_str(),
                      admitted ? "pass" : "fail");
      });
  if (!admitted) {
    reject(a);
    return;
  }

  ds_->admit(a.job, spec, placement);
  const JobId job = a.job;
  // Each stage's backlog is released at its predicted completion bound —
  // never earlier than the real completion, so later admission tests stay
  // sound while shedding finished work far before the deadline backstop.
  for (std::size_t j = 0; j < bounds.size(); ++j) {
    context().sim.schedule_at(
        a.arrival_time + ds_->config().round_trip() + bounds[j],
        [this, job, j] { (void)ds_->release_stage(job, j); });
  }
  // Deadline backstop: drop whatever remains and forget the job.
  context().sim.schedule_at(a.arrival_time + spec.deadline,
                            [this, job] { ds_->expire(job); });
  accept(spec, a, std::move(placement), /*task_admitted=*/false);
}

void AdmissionControl::handle_task_arrive(const TaskArrivePayload& a) {
  const sched::TaskSpec* spec = tasks_.find(a.task);
  assert(spec && "arrival for unknown task");
  const bool periodic = spec->kind == sched::TaskKind::kPeriodic;

  // DS analysis: aperiodic tasks go through the delay-bound test against
  // the servers; periodic tasks fall through to the AUB paths below (with
  // the servers' interference already reserved in the ledger).
  if (!periodic && analysis_ == AperiodicAnalysis::kDeferrableServer) {
    handle_ds_aperiodic(*spec, a);
    return;
  }

  if (periodic && ac_ == AcStrategy::kPerTask) {
    if (state_.is_reserved(a.task)) {
      // Already admitted wholesale: the job is auto-accepted.  (The TE only
      // forwards such arrivals when it must hold every job, i.e. LB per
      // Job — which is exactly when the reservation may move.)
      if (lb_ == LbStrategy::kPerJob) maybe_move_reservation(*spec);
      ++counters_.auto_accepts;
      const auto reservation = state_.reservation(a.task);
      accept(*spec, a, events::Placement(reservation->placement),
             /*task_admitted=*/true);
      return;
    }
    if (rejected_tasks_.count(a.task) > 0) {
      reject(a);
      return;
    }
    // First arrival: test once, reserve forever.  A drain-unplaceable
    // arrival is rejected without condemning the task: once the drained
    // processors return, a later first arrival may still admit it.
    events::Placement placement = placement_for(*spec);
    if (placement.empty()) {
      ++counters_.drain_unplaceable;
      reject(a);
      return;
    }
    if (test(*spec, placement).admitted) {
      state_.reserve_task(*spec, placement);
      accept(*spec, a, std::move(placement), /*task_admitted=*/true);
    } else {
      rejected_tasks_.insert(a.task);
      reject(a);
    }
    return;
  }

  // Per-job admission: aperiodic jobs always, periodic jobs under AC per Job.
  events::Placement placement = placement_for(*spec);
  if (placement.empty()) {
    ++counters_.drain_unplaceable;
    reject(a);
    return;
  }
  if (!test(*spec, placement).admitted) {
    reject(a);
    return;
  }
  const Time absolute_deadline = a.arrival_time + spec->deadline;
  state_.admit_job(*spec, a.job, placement, absolute_deadline);
  // The contribution of a job is removed when its deadline expires (§2),
  // unless idle resetting already removed parts of it.
  const JobId job = a.job;
  context().sim.schedule_at(absolute_deadline,
                            [this, job] { state_.expire_job(job); });
  accept(*spec, a, std::move(placement), /*task_admitted=*/false);
}

namespace {

std::string placement_string(const events::Placement& placement) {
  std::string out;
  for (const ProcessorId p : placement) {
    if (!out.empty()) out += ',';
    out += p.to_string();
  }
  return out;
}

bool touches(std::span<const ProcessorId> placement,
             const std::set<ProcessorId>& nodes) {
  for (const ProcessorId p : placement) {
    if (nodes.count(p) > 0) return true;
  }
  return false;
}

}  // namespace

Result<AdmissionControl::TransitionSummary> AdmissionControl::apply_drain(
    const std::set<ProcessorId>& drained) {
  using R = Result<TransitionSummary>;
  const std::set<ProcessorId> previous = std::exchange(drained_, drained);
  TransitionSummary summary;

  // Standing reservations touching a drained processor must migrate.
  // Sorted by TaskId so migration (and trace) order is canonical, not the
  // reservation slab's churn-dependent row order.
  std::vector<TaskId> affected;
  state_.for_each_reservation(
      [&](const SchedulingState::ReservationView& r) {
        if (touches(r.placement, drained_)) affected.push_back(r.task);
      });
  std::sort(affected.begin(), affected.end());

  // Undo log: (task, original placement), in migration order.
  std::vector<std::pair<TaskId, events::Placement>> undo;
  for (const TaskId task : affected) {
    const sched::TaskSpec* spec = tasks_.find(task);
    assert(spec != nullptr);
    events::Placement old_placement = state_.release_reservation(*spec);
    // Minimal disruption: only stages on a drained processor move (to the
    // lowest-utilization live candidate); the rest stay where they are.
    events::Placement fresh = drain_adjusted(*spec, old_placement);
    if (fresh.empty() || !test(*spec, fresh).admitted) {
      // Roll everything back.  Re-reserving a placement re-adds the same
      // units it released, and ledger totals are exact integers, so every
      // total returns to its value before the attempt, bit for bit.
      state_.reserve_task(*spec, old_placement);
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        const sched::TaskSpec* undone = tasks_.find(it->first);
        assert(undone != nullptr);
        (void)state_.release_reservation(*undone);
        if (plans_.count(it->first) > 0) plans_[it->first] = it->second;
        state_.reserve_task(*undone, it->second);
      }
      drained_ = previous;
      return R::error("reconfiguration rejected: admitted task " +
                      task.to_string() +
                      " cannot keep its deadline guarantee off the drained "
                      "processors");
    }
    state_.reserve_task(*spec, fresh);
    if (plans_.count(task) > 0) plans_[task] = fresh;
    summary.migrated.push_back({task, old_placement, fresh});
    undo.emplace_back(task, std::move(old_placement));
  }
  // Counters and trace records are emitted only once the whole transition
  // is known to succeed — a rolled-back migration never happened.
  for (const MigrationRecord& m : summary.migrated) {
    ++counters_.migrations;
    context().trace.record_lazy(
        context().sim.now(), sim::TraceKind::kTaskMigrated,
        context().processor, m.task, JobId(), [&m] {
          return placement_string(m.from) + " -> " + placement_string(m.to);
        });
  }

  // Frozen LB-per-Task plans of non-reserved (per-job admitted) tasks are
  // re-frozen off the drained processors; each future job is admission
  // tested at arrival, so no re-check (or rollback) is needed here.
  std::vector<TaskId> unfreeze;
  for (auto& [task, placement] : plans_) {
    if (state_.is_reserved(task) || !touches(placement, drained_)) continue;
    const sched::TaskSpec* spec = tasks_.find(task);
    assert(spec != nullptr);
    auto fresh = drain_adjusted(*spec, placement);
    if (fresh.empty()) {
      unfreeze.push_back(task);  // re-placed (or rejected) at next arrival
    } else {
      placement = std::move(fresh);
    }
  }
  for (const TaskId task : unfreeze) plans_.erase(task);

  return summary;
}

Time AdmissionControl::quiesce_horizon(
    const std::set<ProcessorId>& nodes) const {
  const Time now = context().sim.now();
  Time horizon = std::max(now, state_.latest_deadline_touching(nodes));
  for (const sched::TaskSpec& task : tasks_.tasks()) {
    bool reaches = false;
    for (const sched::SubtaskSpec& st : task.subtasks) {
      for (const ProcessorId cand : st.candidates()) {
        if (nodes.count(cand) > 0) {
          reaches = true;
          break;
        }
      }
      if (reaches) break;
    }
    if (reaches) horizon = std::max(horizon, now + task.deadline);
  }
  return horizon;
}

void AdmissionControl::handle_idle_reset(const IdleResetPayload& payload) {
  std::size_t applied = 0;
  for (const events::SubjobRef& ref : payload.completed) {
    if (state_.reset_subjob(ref.job, ref.stage)) {
      ++applied;
      continue;
    }
    // DS-admitted jobs keep their backlog in the DS book instead.
    if (ds_ && ds_->release_stage(ref.job, ref.stage)) ++applied;
  }
  counters_.subjobs_reset += applied;
  if (metrics_) metrics_->on_idle_reset(applied);
  context().trace.record_lazy(
      context().sim.now(), sim::TraceKind::kIdleReset, payload.processor,
      TaskId(), JobId(), [applied, &payload] {
        return strfmt("%zu applied of %zu reported", applied,
                      payload.completed.size());
      });
}

}  // namespace rtcm::core
