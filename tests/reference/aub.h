// Full-rescan references for Equation (1), for tests and benches.
//
// Production admission (sched::AdmissionIndex) re-checks only the
// footprints a candidate touches, against cached per-processor terms.
// These references recompute everything from the ledger on every call:
// aub_admission_test() re-checks every footprint of the task set.  The
// oracle differential and IncrementalAub tests hold the index to it
// exactly, and bench/admission_scale.cpp times it as its full_rescan
// baseline.  Both share the one unit term (sched::aub_term_units);
// aub_term() is the textbook formula in double that the unit term is
// checked against.
#pragma once

#include <vector>

#include "core/scheduling_state.h"
#include "sched/aub.h"
#include "sched/utilization_ledger.h"
#include "util/ids.h"

namespace rtcm::reference {

/// One admitted task's visit list, as the admission test needs to re-check
/// it.
struct TaskFootprint {
  TaskId task;
  /// Processor of each stage, in chain order (repeats allowed).
  std::vector<ProcessorId> processors;
};

/// Equation (1)'s per-stage term U(1 - U/2)/(1 - U) in double, for U in
/// [0, 1).
[[nodiscard]] double aub_term(double u);

/// Left-hand side of Equation (1) for a footprint against the ledger's
/// totals, as the reported double (sched::aub_value of the unit sum).
[[nodiscard]] double aub_lhs(const sched::UtilizationLedger& ledger,
                             const std::vector<ProcessorId>& footprint);

/// Evaluate Equation (1) for `candidate` placed per `stages`, with every
/// footprint in `current` still required to pass.  The ledger is only read;
/// the tentative addition is overlaid internally.
[[nodiscard]] sched::AdmissionDecision aub_admission_test(
    const sched::UtilizationLedger& ledger, TaskId candidate,
    const std::vector<sched::CandidateStage>& stages,
    const std::vector<TaskFootprint>& current);

/// Footprints of every admitted-and-unexpired job, then of every
/// reservation, in the book's row order: the task set Equation (1) must
/// keep holding for.
[[nodiscard]] std::vector<TaskFootprint> current_footprints(
    const core::SchedulingState& state);

}  // namespace rtcm::reference
