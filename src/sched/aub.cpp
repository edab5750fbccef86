#include "sched/aub.h"

#include <cassert>
#include <cmath>
#include <unordered_map>

namespace rtcm::sched {

namespace {
constexpr double kEpsilon = kAubEpsilon;
constexpr double kUnsatisfiable = kAubUnsatisfiable;
}  // namespace

double aub_term(double u) {
  assert(u >= 0.0);
  if (u >= 1.0) return kUnsatisfiable;
  return u * (1.0 - u / 2.0) / (1.0 - u);
}

namespace {

double lhs_with_overlay(
    const UtilizationLedger& ledger,
    const std::unordered_map<ProcessorId, UtilizationLedger::Units>& overlay,
    const std::vector<ProcessorId>& footprint) {
  double sum = 0;
  for (const ProcessorId proc : footprint) {
    UtilizationLedger::Units units = ledger.total_units(proc);
    if (const auto it = overlay.find(proc); it != overlay.end()) {
      units += it->second;
    }
    const double u = UtilizationLedger::utilization(units);
    if (u >= 1.0 - kEpsilon) return kUnsatisfiable;
    sum += aub_term(u);
  }
  return sum;
}

}  // namespace

double aub_lhs(const UtilizationLedger& ledger,
               const std::vector<ProcessorId>& footprint) {
  return lhs_with_overlay(ledger, {}, footprint);
}

AdmissionDecision aub_admission_test(
    const UtilizationLedger& ledger, TaskId candidate,
    const std::vector<CandidateStage>& stages,
    const std::vector<TaskFootprint>& current) {
  AdmissionDecision decision;

  // Tentatively overlay the candidate's contributions on the ledger totals,
  // converted exactly as the book converts them on admission.
  std::unordered_map<ProcessorId, UtilizationLedger::Units> overlay;
  std::vector<ProcessorId> candidate_footprint;
  candidate_footprint.reserve(stages.size());
  for (const CandidateStage& s : stages) {
    assert(s.processor.valid());
    assert(s.utilization >= 0.0);
    overlay[s.processor] += UtilizationLedger::units(s.utilization);
    candidate_footprint.push_back(s.processor);
  }

  // The candidate itself must satisfy Equation (1)...
  decision.candidate_lhs =
      lhs_with_overlay(ledger, overlay, candidate_footprint);
  if (decision.candidate_lhs > 1.0 + kEpsilon) {
    decision.admitted = false;
    decision.blocking_task = candidate;
    return decision;
  }

  // ...and so must every task already in the current task set.
  for (const TaskFootprint& fp : current) {
    const double lhs = lhs_with_overlay(ledger, overlay, fp.processors);
    if (lhs > 1.0 + kEpsilon) {
      decision.admitted = false;
      decision.failed_on_existing = true;
      decision.blocking_task = fp.task;
      return decision;
    }
  }

  decision.admitted = true;
  return decision;
}

}  // namespace rtcm::sched
