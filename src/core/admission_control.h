// Admission Control (AC) component (paper §4.2, §5).
//
// The central admission controller consumes "Task Arrive" events from the
// task effectors and "Idle Resetting" events from the idle resetters,
// evaluates the AUB schedulability condition (Equation 1) and publishes
// "Accept" / "Reject" events.  Placement is delegated to the Load Balancer
// through the "Location" receptacle.
//
// Strategies (AcConfig):
//   AC per Task: periodic tasks are tested once, at first arrival;
//     admitted tasks get a permanent synthetic-utilization reservation and
//     their later jobs bypass (or trivially pass) admission.  A task that
//     fails its first test never runs.
//   AC per Job: every job of a periodic task is tested; rejected
//     jobs are skipped (criterion C1).
//   Aperiodic jobs are always tested per arrival — each job of an aperiodic
//   task is an independent single-release task.
//   LB None | per Task | per Job selects no balancing, one placement per
//     (periodic) task frozen at first arrival, or a fresh placement per job.
//     Under AC per Task with LB per Job the reservation is *moved* when a
//     better placement passes the admission test ("the LB component may
//     modify a previous allocation plan for a task when a new job of the
//     task arrives", §5).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "ccm/component.h"
#include "core/metrics.h"
#include "core/protocols.h"
#include "core/scheduling_state.h"
#include "core/strategies.h"
#include "sched/ds_admission.h"
#include "sched/task.h"

namespace rtcm::core {

class AdmissionControl final : public ccm::Component {
 public:
  /// `arena` backs the book of record's spilled rows (normally the owning
  /// SystemRuntime's cell arena); null lets the state own a private one.
  AdmissionControl(const sched::TaskSet& tasks, MetricsCollector* metrics,
                   util::MonotonicArena* arena = nullptr);

  struct Counters {
    std::uint64_t admission_tests = 0;
    std::uint64_t admits = 0;
    std::uint64_t rejects = 0;
    std::uint64_t auto_accepts = 0;     // jobs of already-admitted tasks
    std::uint64_t reservation_moves = 0;
    std::uint64_t subjobs_reset = 0;
    std::uint64_t migrations = 0;        // reservations moved by drains
    std::uint64_t drain_unplaceable = 0; // arrivals rejected for lack of a
                                         // non-drained candidate
  };

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const SchedulingState& state() const { return state_; }
  [[nodiscard]] AcStrategy ac_strategy() const { return ac_; }
  [[nodiscard]] LbStrategy lb_strategy() const { return lb_; }
  [[nodiscard]] AperiodicAnalysis analysis() const { return analysis_; }
  /// Present only in DS mode.
  [[nodiscard]] const sched::DsAdmission* ds_admission() const {
    return ds_ ? &*ds_ : nullptr;
  }

  /// Receptacle "Location": the LocationService (Central-LB).
  [[nodiscard]] Status connect(ccm::Port port,
                               ccm::Component& provider) override;

  // --- Runtime reconfiguration (src/reconfig) ------------------------------

  /// Strategies may be swapped live; on_configure guards the
  /// transitions that would be unsound (switching the analysis mid-run).
  [[nodiscard]] bool supports_runtime_reconfiguration() const override {
    return true;
  }

  struct MigrationRecord {
    TaskId task;
    events::Placement from;
    events::Placement to;
  };
  struct TransitionSummary {
    std::vector<MigrationRecord> migrated;
  };

  /// Atomically transition to a new drained-processor set.  Every standing
  /// reservation (AC per Task) whose placement touches a drained processor
  /// is re-placed on non-drained candidates and re-admitted under Equation
  /// (1); frozen LB-per-Task plans are re-frozen likewise.  If any migrated
  /// task would lose its guarantee, the whole transition rolls back (ledger
  /// and reservations restored exactly) and an error is returned.  In-flight
  /// per-job admissions are never migrated — they complete on their old
  /// placement by their deadline (quiescence).
  [[nodiscard]] Result<TransitionSummary> apply_drain(
      const std::set<ProcessorId>& drained);

  [[nodiscard]] const std::set<ProcessorId>& drained() const {
    return drained_;
  }

  /// Earliest virtual time at which `nodes` are guaranteed silent: the max
  /// of every in-flight admitted job's deadline touching them and now + D_i
  /// for every task with a candidate there (covering TE immediate releases
  /// that never pass through the AC's book).  Never before now.
  [[nodiscard]] Time quiesce_horizon(const std::set<ProcessorId>& nodes) const;

 protected:
  [[nodiscard]] Status on_configure(
      const ccm::ComponentConfig& config) override;
  [[nodiscard]] Status on_activate() override;

 private:
  void handle_task_arrive(const events::TaskArrivePayload& payload);
  void handle_idle_reset(const events::IdleResetPayload& payload);

  /// Placement for this arrival per the LB strategy.  Empty when some stage
  /// has no non-drained candidate (the arrival must be rejected).
  [[nodiscard]] events::Placement placement_for(const sched::TaskSpec& spec);
  [[nodiscard]] events::Placement propose(const sched::TaskSpec& spec);
  [[nodiscard]] static events::Placement primaries(
      const sched::TaskSpec& spec);

  /// Remap stages placed on drained processors to the lowest-utilization
  /// non-drained candidate (ties by candidate order).  Empty result when a
  /// stage has no live candidate.
  [[nodiscard]] events::Placement drain_adjusted(
      const sched::TaskSpec& spec, events::Placement placement) const;

  /// Run Equation (1) for `spec` placed on `placement`, incrementally: only
  /// footprints intersecting the placement are re-checked (the book's
  /// AdmissionIndex).  tests/oracle_differential_test.cpp holds this to the
  /// full-task-set rescan (sched::aub_admission_test) on every library
  /// grid.
  [[nodiscard]] sched::AdmissionDecision test(
      const sched::TaskSpec& spec, const events::Placement& placement);

  /// LB per Job under AC per Task: try to move the standing reservation.
  void maybe_move_reservation(const sched::TaskSpec& spec);

  void accept(const sched::TaskSpec& spec, const events::TaskArrivePayload& a,
              events::Placement placement, bool task_admitted);
  void reject(const events::TaskArrivePayload& a);

  /// DS-mode aperiodic arrival handling (delay-bound admission + backlog).
  void handle_ds_aperiodic(const sched::TaskSpec& spec,
                           const events::TaskArrivePayload& a);

  const sched::TaskSet& tasks_;
  MetricsCollector* metrics_;
  AcStrategy ac_ = AcStrategy::kPerTask;
  LbStrategy lb_ = LbStrategy::kNone;
  AperiodicAnalysis analysis_ = AperiodicAnalysis::kAub;
  LocationService* location_ = nullptr;

  SchedulingState state_;
  /// Frozen plans (LB per Task, periodic tasks), set at first arrival.
  std::map<TaskId, events::Placement> plans_;
  /// Periodic tasks rejected at first arrival under AC per Task.
  std::set<TaskId> rejected_tasks_;
  /// Processors currently drained by the reconfiguration engine: no new
  /// placement may use them (in-flight jobs finish there by quiescence).
  std::set<ProcessorId> drained_;
  Counters counters_;
  /// test()'s candidate stages; reused, so a test does not allocate.
  std::vector<sched::CandidateStage> stages_;

  // DS mode only: the servers' backlogs and each DS-admitted job's stages.
  std::optional<sched::DsAdmission> ds_;
};

}  // namespace rtcm::core
