#include <gtest/gtest.h>

#include <cmath>

#include "reference/analysis.h"
#include "reference/aub.h"
#include "sched/admission_index.h"
#include "sched/aub.h"
#include "sched/utilization_ledger.h"
#include "test_helpers.h"

namespace rtcm::sched {
namespace {

using rtcm::testing::make_aperiodic;
using rtcm::testing::make_periodic;

// --- UtilizationLedger -------------------------------------------------------

TEST(LedgerTest, AddAndTotal) {
  UtilizationLedger ledger;
  const auto a = ledger.add(ProcessorId(0), 0.3);
  const auto b = ledger.add(ProcessorId(0), 0.2);
  const auto c = ledger.add(ProcessorId(1), 0.4);
  EXPECT_EQ(a, UtilizationLedger::units(0.3));
  EXPECT_EQ(ledger.total_units(ProcessorId(0)), a + b);
  EXPECT_EQ(ledger.total_units(ProcessorId(1)), c);
  EXPECT_EQ(ledger.total(ProcessorId(0)), UtilizationLedger::utilization(a + b));
  EXPECT_EQ(ledger.total(ProcessorId(9)), 0.0);
  EXPECT_EQ(ledger.total_all(), UtilizationLedger::utilization(a + b + c));
  ledger.remove(ProcessorId(0), a);
  EXPECT_EQ(ledger.total_units(ProcessorId(0)), b);
}

TEST(LedgerTest, UnitsRoundUpExactly) {
  // units(u) = ceil(u * 2^40): exact multiples of 2^-40 convert exactly,
  // anything else rounds up, so no positive contribution is ever dropped
  // or understated.
  EXPECT_EQ(UtilizationLedger::units(0.0), 0u);
  EXPECT_EQ(UtilizationLedger::units(0.5), std::uint64_t{1} << 39);
  EXPECT_EQ(UtilizationLedger::units(1.0), std::uint64_t{1} << 40);
  EXPECT_EQ(UtilizationLedger::units(0x1p-40), 1u);
  EXPECT_EQ(UtilizationLedger::units(0x1p-60), 1u);
  EXPECT_EQ(UtilizationLedger::units(0.1), 109951162778u);  // 2^40/10 up
  EXPECT_GE(UtilizationLedger::utilization(UtilizationLedger::units(0.1)),
            0.1);
  EXPECT_EQ(UtilizationLedger::utilization(std::uint64_t{3} << 38), 0.75);
}

TEST(LedgerTest, RemoveGivesBackTheExactPriorTotal) {
  UtilizationLedger ledger;
  const auto keep = ledger.add(ProcessorId(0), 0.25);
  const UtilizationLedger::Units before = ledger.total_units(ProcessorId(0));
  const auto gone = ledger.add(ProcessorId(0), 0.1 / 3.0);
  ledger.remove(ProcessorId(0), gone);
  EXPECT_EQ(ledger.total_units(ProcessorId(0)), before);
  ledger.remove(ProcessorId(0), keep);
  EXPECT_EQ(ledger.total(ProcessorId(0)), 0.0);
}

TEST(LedgerTest, TotalsNeverGoNegative) {
  UtilizationLedger ledger;
  // Drift-prone amounts (not multiples of 2^-40) added and removed a
  // thousand times leave exactly zero, not a residue either side of it.
  std::vector<UtilizationLedger::Units> added;
  for (int i = 0; i < 1000; ++i) {
    added.push_back(ledger.add(ProcessorId(0), 0.1 / 3.0));
  }
  for (const auto units : added) ledger.remove(ProcessorId(0), units);
  EXPECT_EQ(ledger.total_units(ProcessorId(0)), 0u);
  EXPECT_EQ(ledger.total(ProcessorId(0)), 0.0);
}

TEST(LedgerTest, DrainedProcessorTotalIsExactlyZero) {
  UtilizationLedger ledger;
  // Interleaved adds/removes with drift-prone amounts: once every
  // contribution on a processor is gone, the total is exactly zero —
  // admission tests and quiescence checks compare against it.
  std::vector<UtilizationLedger::Units> added;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      added.push_back(ledger.add(ProcessorId(0), (i + 1) / 7.0 / 300.0));
    }
    for (const auto units : added) ledger.remove(ProcessorId(0), units);
    added.clear();
    EXPECT_EQ(ledger.total(ProcessorId(0)), 0.0);
    EXPECT_EQ(ledger.total_all(), 0.0);
  }
  // Another processor's total is untouched by all of that.
  const auto keep = ledger.add(ProcessorId(1), 0.25);
  const auto gone = ledger.add(ProcessorId(1), 0.5);
  ledger.remove(ProcessorId(1), gone);
  EXPECT_EQ(ledger.total(ProcessorId(1)), 0.25);
  ledger.remove(ProcessorId(1), keep);
  EXPECT_EQ(ledger.total(ProcessorId(1)), 0.0);
}

TEST(LedgerTest, MidFlightRemovalKeepsResidualTotal) {
  UtilizationLedger ledger;
  // Removing one contribution while others stay live leaves exactly the
  // residual: the survivors' units, no more and no less.
  const auto small = ledger.add(ProcessorId(0), 0.3);
  const auto large = ledger.add(ProcessorId(0), 0.4);
  ledger.remove(ProcessorId(0), large);
  EXPECT_EQ(ledger.total_units(ProcessorId(0)), small);
  EXPECT_GT(ledger.total(ProcessorId(0)), 0.0);
  ledger.remove(ProcessorId(0), small);
  EXPECT_EQ(ledger.total(ProcessorId(0)), 0.0);
}

TEST(LedgerTest, TotalsIgnoreAddAndRemoveOrder) {
  // The same contributions added and removed in two different orders give
  // equal totals: integer units make the ledger's state a function of the
  // live set alone.  (Floating-point totals differ here: 0.1 + 0.2 + 0.3
  // and 0.3 + 0.2 + 0.1 round differently.)
  const std::vector<double> amounts = {0.1,  0.2,       0.3,  1.0 / 3.0,
                                       0.07, 0.1 / 7.0, 0.15, 0.011};
  UtilizationLedger forward;
  UtilizationLedger backward;
  std::vector<UtilizationLedger::Units> f_units;
  std::vector<UtilizationLedger::Units> b_units(amounts.size());
  for (const double u : amounts) f_units.push_back(forward.add(ProcessorId(0), u));
  for (std::size_t i = amounts.size(); i-- > 0;) {
    b_units[i] = backward.add(ProcessorId(0), amounts[i]);
  }
  EXPECT_EQ(forward.total(ProcessorId(0)), backward.total(ProcessorId(0)));
  // Remove the even-indexed contributions: forward in index order,
  // backward in reverse.
  for (std::size_t i = 0; i < amounts.size(); i += 2) {
    forward.remove(ProcessorId(0), f_units[i]);
  }
  for (std::size_t i = amounts.size(); i-- > 0;) {
    if (i % 2 == 0) backward.remove(ProcessorId(0), b_units[i]);
  }
  EXPECT_EQ(forward.total(ProcessorId(0)), backward.total(ProcessorId(0)));
  EXPECT_EQ(forward.total_all(), backward.total_all());
}

TEST(LedgerTest, ProcessorsListsNonZero) {
  UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(3), 0.1);
  const auto a = ledger.add(ProcessorId(1), 0.1);
  ledger.remove(ProcessorId(1), a);
  const auto procs = ledger.processors();
  ASSERT_EQ(procs.size(), 1u);
  EXPECT_EQ(procs[0], ProcessorId(3));
}

TEST(LedgerTest, ProcessorsOrderIsSorted) {
  // processors() is part of the determinism contract: callers iterate it to
  // place work and emit traces, so its order must be a function of the
  // loaded set alone — ascending id — never of insertion or removal order.
  UtilizationLedger ledger;
  const auto a = ledger.add(ProcessorId(9), 0.1);
  (void)ledger.add(ProcessorId(2), 0.1);
  (void)ledger.add(ProcessorId(7), 0.1);
  (void)ledger.add(ProcessorId(0), 0.1);
  ledger.remove(ProcessorId(9), a);
  (void)ledger.add(ProcessorId(9), 0.1);  // re-added after removal
  const std::vector<ProcessorId> expected = {ProcessorId(0), ProcessorId(2),
                                             ProcessorId(7), ProcessorId(9)};
  EXPECT_EQ(ledger.processors(), expected);
}

// --- aub_term_units -----------------------------------------------------------

using reference::aub_admission_test;
using reference::aub_lhs;
using reference::aub_term;
using reference::TaskFootprint;

constexpr UtilizationLedger::Units kOne = UtilizationLedger::Units{1} << 40;

TEST(AubTermTest, KnownValues) {
  EXPECT_EQ(aub_term_units(0), 0u);
  // U(1 - U/2)/(1 - U) at U = 0.5: 0.5 * 0.75 / 0.5 = 0.75, exact in units.
  EXPECT_EQ(aub_term_units(kOne / 2), kAubBound / 4 * 3);
  EXPECT_EQ(aub_term(0.5), 0.75);
  // At U = 2/3: (2/3)(2/3)/(1/3) = 4/3.
  EXPECT_NEAR(aub_term(2.0 / 3.0), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(aub_value(aub_term_units(UtilizationLedger::units(2.0 / 3.0))),
              4.0 / 3.0, 1e-11);
}

TEST(AubTermTest, UnitTermIsTheFormulaRoundedUp) {
  // At any total the unit term is the exact term rounded up: at or above
  // the formula, by less than one unit (plus the formula's own double
  // rounding), up to U = 0.99, short of the cap.
  for (UtilizationLedger::Units n = 0; n < kOne / 100 * 99;
       n += kOne / 997) {
    const double u = UtilizationLedger::utilization(n);
    const double exact = aub_term(u);
    const double term = aub_value(aub_term_units(n));
    EXPECT_GE(term, exact * (1 - 1e-15)) << "n = " << n;
    EXPECT_LE(term, exact * (1 + 1e-15) + 0x1p-40) << "n = " << n;
  }
}

TEST(AubTermTest, SaturatedUtilizationYieldsSentinelNotGarbage) {
  // At U >= 1 the formula's denominator (1 - U) is zero or negative; a
  // Release build used to divide through and produce a garbage (negative)
  // LHS that could admit an unschedulable task.  The guard must be a real
  // branch, not an assert.
  EXPECT_EQ(aub_term_units(kOne), kAubSaturated);
  EXPECT_EQ(aub_term_units(kOne + kOne / 2), kAubSaturated);
  EXPECT_EQ(aub_term_units(100 * kOne), kAubSaturated);
  EXPECT_GT(kAubSaturated, kAubBound);  // unsatisfiable under Equation (1)
  // Just below full utilization the exact term (~2^79 units) is capped.
  EXPECT_EQ(aub_term_units(kOne - 1), kAubSaturated);
  EXPECT_EQ(aub_value(kAubSaturated), 1e9);
  // A reported LHS is capped too: a saturated stage reads 1e9 whatever
  // else adds.
  EXPECT_EQ(aub_value(aub_term_units(kOne / 2) + kAubSaturated), 1e9);
}

TEST(AubTermTest, MonotonicallyIncreasing) {
  double prev = -1;
  for (double u = 0; u < 0.99; u += 0.01) {
    const double t = aub_term(u);
    EXPECT_GT(t, prev);
    prev = t;
  }
  // The unit term never decreases, up to and past saturation.
  AubUnits prev_units = 0;
  for (UtilizationLedger::Units n = 0; n < 2 * kOne; n += kOne / 1009) {
    const AubUnits t = aub_term_units(n);
    EXPECT_GE(t, prev_units) << "n = " << n;
    prev_units = t;
  }
}

TEST(AubTermTest, SingleProcessorBoundary) {
  // A single-stage task alone on one processor satisfies the bound up to
  // the utilization where term(U) = 1, i.e. U = 2 - sqrt(2) ~ 0.586.
  const double u_star = 2.0 - std::sqrt(2.0);
  EXPECT_NEAR(aub_term(u_star), 1.0, 1e-9);
  // In units the largest admissible total is ⌊(2 - sqrt(2)) 2^40⌋
  // (the real boundary is 644,078,999,564.26 units).
  const auto n_star = static_cast<UtilizationLedger::Units>(u_star * 0x1p40);
  EXPECT_EQ(n_star, 644'078'999'564u);
  EXPECT_LE(aub_term_units(n_star), kAubBound);
  EXPECT_GT(aub_term_units(n_star + 1), kAubBound);
}

// --- aub_lhs ----------------------------------------------------------------

TEST(AubLhsTest, SumsPerVisit) {
  UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.5);
  (void)ledger.add(ProcessorId(1), 0.5);
  const double lhs =
      aub_lhs(ledger, {ProcessorId(0), ProcessorId(1)});
  EXPECT_EQ(lhs, 1.5);
}

TEST(AubLhsTest, RepeatedProcessorCountsTwice) {
  UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.5);
  const double lhs = aub_lhs(ledger, {ProcessorId(0), ProcessorId(0)});
  EXPECT_EQ(lhs, 1.5);
}

TEST(AubLhsTest, SaturatedProcessorIsUnsatisfiable) {
  UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 1.0);
  (void)ledger.add(ProcessorId(1), 0.5);
  EXPECT_EQ(aub_lhs(ledger, {ProcessorId(0)}), 1e9);
  EXPECT_EQ(aub_lhs(ledger, {ProcessorId(1), ProcessorId(0)}), 1e9);
}

// --- aub_admission_test ------------------------------------------------------

TEST(AdmissionTest, EmptySystemAdmitsLightTask) {
  UtilizationLedger ledger;
  const auto decision = aub_admission_test(
      ledger, TaskId(0), {{ProcessorId(0), 0.3}, {ProcessorId(1), 0.3}}, {});
  EXPECT_TRUE(decision.admitted);
  // Each stage is judged at the ledger's exact value of 0.3, rounded up.
  EXPECT_EQ(decision.candidate_lhs,
            aub_value(2 * aub_term_units(UtilizationLedger::units(0.3))));
}

TEST(AdmissionTest, RejectsOverloadedCandidate) {
  UtilizationLedger ledger;
  // Two stages at 0.5 each on distinct processors: 0.75 + 0.75 > 1.
  const auto decision = aub_admission_test(
      ledger, TaskId(0), {{ProcessorId(0), 0.5}, {ProcessorId(1), 0.5}}, {});
  EXPECT_FALSE(decision.admitted);
  EXPECT_FALSE(decision.failed_on_existing);
  EXPECT_EQ(decision.blocking_task, TaskId(0));
}

TEST(AdmissionTest, CandidateOverlayAppliesToOwnTest) {
  UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.4);
  // Candidate adds 0.3 on P0 -> 0.7; term(0.7) = 0.7*0.65/0.3 ~ 1.516 > 1.
  const auto decision =
      aub_admission_test(ledger, TaskId(1), {{ProcessorId(0), 0.3}}, {});
  EXPECT_FALSE(decision.admitted);
}

TEST(AdmissionTest, RejectsWhenExistingTaskWouldBreak) {
  UtilizationLedger ledger;
  // Existing task spans P0 and P1 at 0.4 each: lhs = 2 * term(0.4) ~ 1.07?
  // term(0.4) = 0.4*0.8/0.6 = 0.5333 -> 1.067 > 1... choose 0.35 instead:
  // term(0.35) = 0.35*0.825/0.65 = 0.4442 -> lhs 0.888, admissible.
  (void)ledger.add(ProcessorId(0), 0.35);
  (void)ledger.add(ProcessorId(1), 0.35);
  std::vector<TaskFootprint> current = {
      {TaskId(7), {ProcessorId(0), ProcessorId(1)}}};
  // New candidate on P0 alone at 0.25 passes its own test (term(0.6) =
  // 0.6*0.7/0.4 = 1.05 > 1? -> its own lhs fails).  Use 0.1: term(0.45) =
  // 0.45*0.775/0.55 = 0.634 ok; existing task becomes term(0.45)+term(0.35)
  // = 1.078 > 1 -> must be rejected because of the existing task.
  const auto decision =
      aub_admission_test(ledger, TaskId(9), {{ProcessorId(0), 0.1}}, current);
  EXPECT_FALSE(decision.admitted);
  EXPECT_TRUE(decision.failed_on_existing);
  EXPECT_EQ(decision.blocking_task, TaskId(7));
}

TEST(AdmissionTest, AdmitsWhenAllStillSatisfied) {
  UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.2);
  (void)ledger.add(ProcessorId(1), 0.2);
  std::vector<TaskFootprint> current = {
      {TaskId(7), {ProcessorId(0), ProcessorId(1)}}};
  const auto decision =
      aub_admission_test(ledger, TaskId(9), {{ProcessorId(0), 0.1}}, current);
  EXPECT_TRUE(decision.admitted);
}

TEST(AdmissionTest, MultiStageCandidateOnSameProcessor) {
  UtilizationLedger ledger;
  // Candidate visits P0 twice at 0.15 each: U = 0.3 on P0 for BOTH stage
  // terms, lhs = 2*term(0.3) ~ 0.73 -> admissible.
  const auto decision = aub_admission_test(
      ledger, TaskId(0), {{ProcessorId(0), 0.15}, {ProcessorId(0), 0.15}}, {});
  EXPECT_TRUE(decision.admitted);
  // Both stages convert to ledger units before they sum on P0.
  EXPECT_EQ(decision.candidate_lhs,
            aub_value(2 * aub_term_units(2 * UtilizationLedger::units(0.15))));
  // At 0.2 per stage the same shape fails: 2*term(0.4) ~ 1.07 > 1.
  const auto too_heavy = aub_admission_test(
      ledger, TaskId(0), {{ProcessorId(0), 0.2}, {ProcessorId(0), 0.2}}, {});
  EXPECT_FALSE(too_heavy.admitted);
}

TEST(AdmissionTest, BoundaryExactlyOneAdmits) {
  // The largest admissible total on one processor: at n units the rounded-
  // up term is exactly 2^40, the bound, and one unit more gives 2^40 + 3.
  constexpr UtilizationLedger::Units n = 644'078'999'564;
  EXPECT_EQ(aub_term_units(n), kAubBound);
  EXPECT_EQ(aub_term_units(n + 1), kAubBound + 3);

  // A single stage of exactly n units (n x 2^-40 converts exactly) is
  // admitted with an LHS of exactly 1, by the production index and by the
  // reference; n + 1 is rejected.
  UtilizationLedger ledger;
  AdmissionIndex index;
  const double at_bound = UtilizationLedger::utilization(n);
  const double past_bound = UtilizationLedger::utilization(n + 1);
  for (const AdmissionDecision& admitted :
       {index.admission_test(ledger, TaskId(0), {{ProcessorId(0), at_bound}}),
        aub_admission_test(ledger, TaskId(0), {{ProcessorId(0), at_bound}},
                           {})}) {
    EXPECT_TRUE(admitted.admitted);
    EXPECT_EQ(admitted.candidate_lhs, 1.0);
  }
  for (const AdmissionDecision& rejected :
       {index.admission_test(ledger, TaskId(0),
                             {{ProcessorId(0), past_bound}}),
        aub_admission_test(ledger, TaskId(0), {{ProcessorId(0), past_bound}},
                           {})}) {
    EXPECT_FALSE(rejected.admitted);
    EXPECT_EQ(rejected.candidate_lhs, 1.0 + 3 * 0x1p-40);
  }
}

// Property sweep: admission decisions are monotone in background load —
// if a candidate is rejected at background utilization u, it stays rejected
// at any higher utilization.
class AdmissionMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(AdmissionMonotonicityTest, RejectionIsMonotone) {
  const double candidate_u = GetParam();
  bool rejected_before = false;
  for (double bg = 0.0; bg < 0.95; bg += 0.05) {
    UtilizationLedger ledger;
    (void)ledger.add(ProcessorId(0), bg);
    const auto decision = aub_admission_test(
        ledger, TaskId(1), {{ProcessorId(0), candidate_u}}, {});
    if (rejected_before) {
      EXPECT_FALSE(decision.admitted)
          << "candidate " << candidate_u << " re-admitted at bg " << bg;
    }
    if (!decision.admitted) rejected_before = true;
  }
}

INSTANTIATE_TEST_SUITE_P(UtilizationSweep, AdmissionMonotonicityTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3, 0.4, 0.5));

// --- analysis ----------------------------------------------------------------

using reference::analyze_feasibility;
using reference::peak_simultaneous_utilization;
using reference::primary_footprint;
using reference::simultaneous_utilization;

TEST(AnalysisTest, SimultaneousUtilization) {
  TaskSet set;
  ASSERT_TRUE(set.add(make_periodic(0, Duration::milliseconds(100),
                                    {{0, 30000}, {1, 20000}}))
                  .is_ok());
  ASSERT_TRUE(set.add(make_aperiodic(1, Duration::milliseconds(100),
                                     {{0, 10000}}))
                  .is_ok());
  const auto utils = simultaneous_utilization(set);
  EXPECT_NEAR(utils.at(ProcessorId(0)), 0.4, 1e-12);
  EXPECT_NEAR(utils.at(ProcessorId(1)), 0.2, 1e-12);
  EXPECT_NEAR(peak_simultaneous_utilization(set), 0.4, 1e-12);
}

TEST(AnalysisTest, FeasibilityReport) {
  TaskSet feasible;
  ASSERT_TRUE(feasible
                  .add(make_periodic(0, Duration::milliseconds(100),
                                     {{0, 20000}, {1, 20000}}))
                  .is_ok());
  const auto ok_report = analyze_feasibility(feasible);
  EXPECT_TRUE(ok_report.feasible);
  ASSERT_EQ(ok_report.lhs.size(), 1u);
  // Each processor's total is the ledger's exact value of 0.2.
  EXPECT_EQ(ok_report.lhs[0],
            aub_value(2 * aub_term_units(UtilizationLedger::units(0.2))));

  TaskSet infeasible;
  ASSERT_TRUE(infeasible
                  .add(make_periodic(0, Duration::milliseconds(100),
                                     {{0, 50000}, {1, 50000}}))
                  .is_ok());
  const auto bad_report = analyze_feasibility(infeasible);
  EXPECT_FALSE(bad_report.feasible);
  EXPECT_EQ(bad_report.first_violation, TaskId(0));
}

TEST(AnalysisTest, PrimaryFootprint) {
  const auto t =
      make_periodic(3, Duration::seconds(1), {{2, 1000}, {0, 1000}, {2, 1000}});
  const auto fp = primary_footprint(t);
  EXPECT_EQ(fp.task, TaskId(3));
  ASSERT_EQ(fp.processors.size(), 3u);
  EXPECT_EQ(fp.processors[0], ProcessorId(2));
  EXPECT_EQ(fp.processors[1], ProcessorId(0));
  EXPECT_EQ(fp.processors[2], ProcessorId(2));
}

}  // namespace
}  // namespace rtcm::sched
