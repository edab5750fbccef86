#include "reference/aub.h"

#include <cassert>
#include <unordered_map>

namespace rtcm::reference {

using sched::UtilizationLedger;

double aub_term(double u) {
  assert(u >= 0.0 && u < 1.0);
  return u * (1.0 - u / 2.0) / (1.0 - u);
}

namespace {

using Overlay = std::unordered_map<ProcessorId, UtilizationLedger::Units>;

sched::AubUnits lhs_with_overlay(const UtilizationLedger& ledger,
                                 const Overlay& overlay,
                                 const std::vector<ProcessorId>& footprint) {
  sched::AubUnits sum = 0;
  for (const ProcessorId proc : footprint) {
    UtilizationLedger::Units units = ledger.total_units(proc);
    if (const auto it = overlay.find(proc); it != overlay.end()) {
      units += it->second;
    }
    sum += sched::aub_term_units(units);
  }
  return sum;
}

}  // namespace

double aub_lhs(const UtilizationLedger& ledger,
               const std::vector<ProcessorId>& footprint) {
  return sched::aub_value(lhs_with_overlay(ledger, {}, footprint));
}

sched::AdmissionDecision aub_admission_test(
    const UtilizationLedger& ledger, TaskId candidate,
    const std::vector<sched::CandidateStage>& stages,
    const std::vector<TaskFootprint>& current) {
  sched::AdmissionDecision decision;

  // Tentatively overlay the candidate's contributions on the ledger totals,
  // converted exactly as the book converts them on admission.
  Overlay overlay;
  std::vector<ProcessorId> candidate_footprint;
  candidate_footprint.reserve(stages.size());
  for (const sched::CandidateStage& s : stages) {
    assert(s.processor.valid());
    assert(s.utilization >= 0.0);
    overlay[s.processor] += UtilizationLedger::units(s.utilization);
    candidate_footprint.push_back(s.processor);
  }

  // The candidate itself must satisfy Equation (1)...
  const sched::AubUnits candidate_lhs =
      lhs_with_overlay(ledger, overlay, candidate_footprint);
  decision.candidate_lhs = sched::aub_value(candidate_lhs);
  if (candidate_lhs > sched::kAubBound) {
    decision.blocking_task = candidate;
    return decision;
  }

  // ...and so must every task already in the current task set.
  for (const TaskFootprint& fp : current) {
    if (lhs_with_overlay(ledger, overlay, fp.processors) > sched::kAubBound) {
      decision.failed_on_existing = true;
      decision.blocking_task = fp.task;
      return decision;
    }
  }

  decision.admitted = true;
  return decision;
}

std::vector<TaskFootprint> current_footprints(
    const core::SchedulingState& state) {
  std::vector<TaskFootprint> out;
  out.reserve(state.active_jobs() + state.reservation_count());
  state.for_each_job([&out](const core::SchedulingState::JobView& job) {
    out.push_back({job.task, {job.placement.begin(), job.placement.end()}});
  });
  state.for_each_reservation(
      [&out](const core::SchedulingState::ReservationView& reservation) {
        out.push_back({reservation.task,
                       {reservation.placement.begin(),
                        reservation.placement.end()}});
      });
  return out;
}

}  // namespace rtcm::reference
