// Aperiodic Utilization Bound (AUB) schedulability analysis.
//
// Implements the paper's Equation (1) (Abdelzaher, Thaker, Lardieri,
// ICDCS'04): under End-to-end Deadline Monotonic Scheduling, task T_i meets
// its deadline if
//
//        n_i
//        Σ    U(1 - U/2) / (1 - U)   <=  1         where U = U_{V_ij}
//        j=1
//
// over the processors V_ij its subtasks visit (a processor visited twice
// counts twice).  Admission control tentatively adds the candidate's
// contributions and requires the condition to keep holding for the candidate
// and for every task currently in the system.
//
// The inequality is evaluated exactly, in the ledger's own units of 2^-40
// (sched/utilization_ledger.h).  At a ledger total of n units, U = n/2^40
// and the stage term is U(1 - U/2)/(1 - U) = n(2^41 - n) / (2^41 (2^40 - n)),
// which is n(2^41 - n) / (2 (2^40 - n)) units.  aub_term_units() rounds that
// up; a footprint passes iff its integer sum is <= 2^40 (kAubBound).
//
// Conservative by construction: an admitted set satisfies Equation (1) at
// the utilizations it was given.
//   - A ledger total is >= the utilization it stands for: every
//     contribution enters as ⌈u·2^40⌉, and a sum of ceilings is >= the
//     ceiling of the sum.
//   - The term is monotone in U, so the term at the ledger total is >= the
//     term at the true total.
//   - Each unit term is rounded up, so a unit sum <= 2^40 bounds the real
//     sum by 1.
//
// A total n >= 2^40 (U >= 1, where the formula's denominator vanishes)
// gives the saturated term kAubSaturated, which exceeds the bound by
// itself.  Every term is capped there (the exact term passes it just below
// n = 2^40), so the term stays monotone and a sum of fewer than 2^57
// terms cannot overflow.  A reported LHS is capped there too, so a
// footprint that visits a saturated processor reports exactly 10^9
// whatever its other stages add.  The cap decides nothing: it lies far
// above the bound.
#pragma once

#include <algorithm>

#include "sched/utilization_ledger.h"
#include "util/ids.h"

namespace rtcm::sched {

/// An Equation (1) term or sum in ledger units.  A term near saturation is
/// up to ~2^70 units, so 64 bits do not hold it.
using AubUnits = unsigned __int128;

/// The right-hand side of Equation (1), 1, in units.
inline constexpr AubUnits kAubBound = AubUnits{1} << 40;
/// The term of a processor at or past full utilization (10^9 in units),
/// and the cap on every term and reported LHS.
inline constexpr AubUnits kAubSaturated = AubUnits{1'000'000'000} << 40;

/// The candidate's per-stage placement and synthetic utilization.
struct CandidateStage {
  ProcessorId processor;
  double utilization = 0.0;
};

/// Per-stage term of Equation (1) at a ledger total of `n` units:
/// ⌈n(2^41 - n) / (2(2^40 - n))⌉, capped at kAubSaturated, and
/// kAubSaturated for n >= 2^40.
[[nodiscard]] AubUnits aub_term_units(UtilizationLedger::Units n);

/// An LHS in units as the reported double: min(lhs, kAubSaturated) x 2^-40.
[[nodiscard]] inline double aub_value(AubUnits lhs) {
  return static_cast<double>(std::min(lhs, kAubSaturated)) * 0x1p-40;
}

/// Detailed outcome of one admission test, for tracing and metrics.
struct AdmissionDecision {
  bool admitted = false;
  /// Which check failed: the candidate itself or an already-admitted task.
  bool failed_on_existing = false;
  TaskId blocking_task;  // valid when failed_on_existing
  /// The candidate's LHS, aub_value() of its unit sum (reported only).
  double candidate_lhs = 0.0;
};

}  // namespace rtcm::sched
