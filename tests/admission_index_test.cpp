// Incremental aUB admission aggregates (sched/admission_index.h).
//
// The index's contract is equivalence: against any reachable book of
// record, its cached per-footprint LHS partials must match a fresh
// Equation-(1) recompute, and its admission decisions must match the
// reference full-task-set rescan.  The unit tests pin the aggregate
// mechanics (visit weights, term deltas, saturation, swap-removal); the
// IncrementalAub property tests drive randomized interleavings of every
// SchedulingState mutation path and compare against the reference at each
// step.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/scheduling_state.h"
#include "sched/admission_index.h"
#include "sched/aub.h"
#include "sched/utilization_ledger.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace rtcm {
namespace {

using rtcm::testing::StageSpec;
using rtcm::testing::make_aperiodic;

// --- AdmissionIndex unit tests ----------------------------------------------

TEST(IncrementalAubIndex, EmptyIndexMatchesReferenceOnCandidate) {
  sched::UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.3);
  sched::AdmissionIndex index;
  const std::vector<sched::CandidateStage> stages = {{ProcessorId(0), 0.2},
                                                     {ProcessorId(1), 0.4}};
  const auto incremental =
      index.admission_test(ledger, TaskId(7), stages);
  const auto reference =
      sched::aub_admission_test(ledger, TaskId(7), stages, {});
  EXPECT_EQ(incremental.admitted, reference.admitted);
  EXPECT_EQ(incremental.candidate_lhs, reference.candidate_lhs);
}

TEST(IncrementalAubIndex, CachedLhsMatchesFreshRecompute) {
  sched::UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.25);
  (void)ledger.add(ProcessorId(1), 0.4);
  sched::AdmissionIndex index;
  const std::vector<ProcessorId> footprint = {ProcessorId(0), ProcessorId(1)};
  const auto id = index.add_footprint(TaskId(1), footprint, ledger);
  EXPECT_DOUBLE_EQ(index.cached_lhs(id), sched::aub_lhs(ledger, footprint));
  EXPECT_EQ(index.footprint_count(), 1u);
  EXPECT_EQ(index.fanout(ProcessorId(0)), 1u);
  index.remove_footprint(id);
  EXPECT_EQ(index.footprint_count(), 0u);
  EXPECT_EQ(index.fanout(ProcessorId(0)), 0u);
}

TEST(IncrementalAubIndex, RepeatedProcessorWeighsEveryVisit) {
  sched::UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(2), 0.3);
  sched::AdmissionIndex index;
  // A chain visiting the same processor three times counts its term thrice,
  // exactly like the reference aub_lhs.
  const std::vector<ProcessorId> footprint = {ProcessorId(2), ProcessorId(2),
                                              ProcessorId(2)};
  const auto id = index.add_footprint(TaskId(1), footprint, ledger);
  EXPECT_DOUBLE_EQ(index.cached_lhs(id), sched::aub_lhs(ledger, footprint));
  EXPECT_NEAR(index.cached_lhs(id), 3.0 * sched::aub_term(0.3), 1e-12);
}

TEST(IncrementalAubIndex, RefreshPushesTermDeltasIntoMembers) {
  sched::UtilizationLedger ledger;
  const auto contribution = ledger.add(ProcessorId(0), 0.2);
  sched::AdmissionIndex index;
  const std::vector<ProcessorId> footprint = {ProcessorId(0), ProcessorId(1)};
  const auto id = index.add_footprint(TaskId(1), footprint, ledger);

  (void)ledger.add(ProcessorId(0), 0.3);
  index.refresh(ProcessorId(0), ledger);
  EXPECT_NEAR(index.cached_lhs(id), sched::aub_lhs(ledger, footprint), 1e-12);

  ledger.remove(ProcessorId(0), contribution);
  index.refresh(ProcessorId(0), ledger);
  EXPECT_NEAR(index.cached_lhs(id), sched::aub_lhs(ledger, footprint), 1e-12);
}

TEST(IncrementalAubIndex, SaturatedProcessorCarriesTheSentinel) {
  sched::UtilizationLedger ledger;
  sched::AdmissionIndex index;
  const std::vector<ProcessorId> footprint = {ProcessorId(0), ProcessorId(1)};
  const auto id = index.add_footprint(TaskId(1), footprint, ledger);

  const auto heavy = ledger.add(ProcessorId(0), 1.0);
  index.refresh(ProcessorId(0), ledger);
  EXPECT_EQ(index.cached_lhs(id), sched::kAubUnsatisfiable);
  EXPECT_EQ(index.cached_lhs(id), sched::aub_lhs(ledger, footprint));

  // A candidate elsewhere is blocked by the saturated footprint...
  const auto blocked = index.admission_test(ledger, TaskId(9),
                                            {{ProcessorId(1), 0.1}});
  EXPECT_FALSE(blocked.admitted);
  EXPECT_TRUE(blocked.failed_on_existing);
  EXPECT_EQ(blocked.blocking_task, TaskId(1));

  // ...and desaturating restores the exact finite partial.
  ledger.remove(ProcessorId(0), heavy);
  index.refresh(ProcessorId(0), ledger);
  EXPECT_NEAR(index.cached_lhs(id), sched::aub_lhs(ledger, footprint), 1e-12);
  EXPECT_TRUE(
      index.admission_test(ledger, TaskId(9), {{ProcessorId(1), 0.1}})
          .admitted);
}

TEST(IncrementalAubIndex, SwapRemovalKeepsBackPointersConsistent) {
  sched::UtilizationLedger ledger;
  sched::AdmissionIndex index;
  // Several footprints sharing one processor; removing from the middle
  // swap-removes member slots, which must not corrupt later refreshes.
  std::vector<sched::FootprintId> ids;
  const std::vector<ProcessorId> footprint = {ProcessorId(0)};
  for (int i = 0; i < 5; ++i) {
    ids.push_back(index.add_footprint(TaskId(i), footprint, ledger));
  }
  index.remove_footprint(ids[1]);
  index.remove_footprint(ids[3]);
  EXPECT_EQ(index.fanout(ProcessorId(0)), 3u);

  (void)ledger.add(ProcessorId(0), 0.4);
  index.refresh(ProcessorId(0), ledger);
  for (const int i : {0, 2, 4}) {
    EXPECT_NEAR(index.cached_lhs(ids[i]), sched::aub_lhs(ledger, footprint),
                1e-12)
        << "footprint " << i;
  }
}

TEST(IncrementalAubIndex, NonIntersectingFootprintsAreSkipped) {
  sched::UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.35);
  (void)ledger.add(ProcessorId(1), 0.35);
  sched::AdmissionIndex index;
  // The two-stage footprint passes Equation (1) right now (2 x term(0.35)
  // ~= 0.89), but a modest addition on either of its processors pushes it
  // over the bound.
  const std::vector<ProcessorId> footprint = {ProcessorId(0), ProcessorId(1)};
  (void)index.add_footprint(TaskId(1), footprint, ledger);

  // A candidate on a fresh processor intersects nothing: the decision only
  // involves the candidate itself, and matches the reference rescan.
  const auto apart =
      index.admission_test(ledger, TaskId(9), {{ProcessorId(7), 0.5}});
  EXPECT_TRUE(apart.admitted);

  // On a shared processor the candidate itself still passes (one stage at
  // term(0.45) ~= 0.63) but the affected footprint is re-tested and blocks.
  const auto blocked =
      index.admission_test(ledger, TaskId(9), {{ProcessorId(0), 0.1}});
  EXPECT_FALSE(blocked.admitted);
  EXPECT_TRUE(blocked.failed_on_existing);
  EXPECT_EQ(blocked.blocking_task, TaskId(1));
}

// --- Randomized equivalence against the reference rescan ---------------------

/// One randomized churn driver: applies random SchedulingState mutations
/// (admissions, expiries, idle resets, reservations, releases, background
/// load) and checks the index against fresh recomputes along the way.
/// Everything is deterministic in `seed`.
///
/// `guarded` selects the production discipline: placements are admitted
/// only after passing the index's own admission test, and background load
/// lands before the first admission (the DS servers' activation-time
/// pattern).  That preserves the invariant "every registered footprint
/// satisfies Equation (1)" which makes skipping non-intersecting footprints
/// sound — the precondition of decision equivalence.  Unguarded churn
/// force-admits and saturates freely: the cached-LHS contract is
/// unconditional, so it must hold even for books no production run reaches.
class ChurnDriver {
 public:
  ChurnDriver(std::uint64_t seed, bool guarded)
      : rng_(seed), guarded_(guarded) {
    if (guarded_) {
      // Activation-time background load, before any admission is tested.
      for (std::size_t p = 0; p < kProcessors; p += 2) {
        state_.add_background(ProcessorId(static_cast<std::int32_t>(p)),
                              rng_.uniform_real(0.0, 0.1));
      }
    }
  }

  void step() {
    const std::size_t op = rng_.index(10);
    if (op < 4) {
      admit();
    } else if (op < 6) {
      expire();
    } else if (op < 7) {
      reset();
    } else if (op < 8) {
      reserve();
    } else if (op < 9) {
      release();
    } else if (!guarded_) {
      background();
    }
  }

  /// Every registered footprint's cached LHS must match a fresh Equation-(1)
  /// recompute over its full placement.
  void verify_cached_lhs() {
    for (const auto& [job, spec] : jobs_) {
      const auto admission = state_.job(job);
      ASSERT_TRUE(admission.has_value());
      EXPECT_NEAR(state_.admission_index().cached_lhs(admission->footprint),
                  sched::aub_lhs(state_.ledger(),
                                 {admission->placement.begin(),
                                  admission->placement.end()}),
                  1e-12);
    }
    state_.for_each_reservation(
        [&](const core::SchedulingState::ReservationView& reservation) {
          EXPECT_NEAR(
              state_.admission_index().cached_lhs(reservation.footprint),
              sched::aub_lhs(state_.ledger(),
                             {reservation.placement.begin(),
                              reservation.placement.end()}),
              1e-12);
        });
  }

  /// A random candidate must get the same decision from the incremental
  /// index as from the reference rescan of every current footprint.
  void verify_decision() {
    std::vector<sched::CandidateStage> stages;
    const std::size_t stage_count = 1 + rng_.index(3);
    for (std::size_t j = 0; j < stage_count; ++j) {
      stages.push_back({ProcessorId(static_cast<std::int32_t>(
                            rng_.index(kProcessors))),
                        rng_.uniform_real(0.01, 0.4)});
    }
    const TaskId candidate(99000 + static_cast<std::int32_t>(rng_.index(64)));
    const auto incremental = state_.admission_index().admission_test(
        state_.ledger(), candidate, stages);
    const auto reference = sched::aub_admission_test(
        state_.ledger(), candidate, stages, state_.current_footprints());
    ASSERT_EQ(incremental.admitted, reference.admitted);
    ASSERT_EQ(incremental.candidate_lhs, reference.candidate_lhs);
    if (!reference.admitted) {
      // The failure side must agree; the blocking witness may differ when
      // several footprints fail, but both must then name *some* existing
      // footprint.
      ASSERT_EQ(incremental.failed_on_existing, reference.failed_on_existing);
    }
  }

  [[nodiscard]] std::size_t active_jobs() const { return jobs_.size(); }

 private:
  static constexpr std::size_t kProcessors = 6;

  sched::TaskSpec random_spec(std::int32_t id) {
    std::vector<StageSpec> stages;
    const std::size_t stage_count = 1 + rng_.index(3);
    for (std::size_t j = 0; j < stage_count; ++j) {
      StageSpec stage;
      stage.primary = static_cast<std::int32_t>(rng_.index(kProcessors));
      stage.exec_usec = rng_.uniform_int(1000, 120000);  // u in [0.001, 0.12]
      stages.push_back(stage);
    }
    return make_aperiodic(id, Duration::seconds(1), stages);
  }

  /// In guarded mode only placements the index itself admits are booked —
  /// the production loop, and the precondition for decision equivalence.
  [[nodiscard]] bool passes_guard(const sched::TaskSpec& spec,
                                  const std::vector<ProcessorId>& placement) {
    if (!guarded_) return true;
    std::vector<sched::CandidateStage> stages;
    for (std::size_t j = 0; j < placement.size(); ++j) {
      stages.push_back({placement[j], spec.subtask_utilization(j)});
    }
    return state_.admission_index()
        .admission_test(state_.ledger(), spec.id, stages)
        .admitted;
  }

  void admit() {
    const auto id = next_id_++;
    const sched::TaskSpec spec = random_spec(id);
    std::vector<ProcessorId> placement;
    for (const auto& subtask : spec.subtasks) {
      placement.push_back(subtask.primary);
    }
    if (!passes_guard(spec, placement)) return;
    state_.admit_job(spec, JobId(id), placement,
                     Time(Duration::seconds(1).usec()));
    jobs_.emplace(JobId(id), spec);
  }

  void expire() {
    if (jobs_.empty()) return;
    auto it = jobs_.begin();
    std::advance(it, rng_.index(jobs_.size()));
    state_.expire_job(it->first);
    jobs_.erase(it);
  }

  void reset() {
    if (jobs_.empty()) return;
    auto it = jobs_.begin();
    std::advance(it, rng_.index(jobs_.size()));
    (void)state_.reset_subjob(it->first,
                              rng_.index(it->second.subtasks.size()));
  }

  void reserve() {
    const auto id = next_id_++;
    const sched::TaskSpec spec = random_spec(id);
    std::vector<ProcessorId> placement;
    for (const auto& subtask : spec.subtasks) {
      placement.push_back(subtask.primary);
    }
    if (!passes_guard(spec, placement)) return;
    state_.reserve_task(spec, placement);
    reserved_.emplace(spec.id, spec);
  }

  void release() {
    if (reserved_.empty()) return;
    auto it = reserved_.begin();
    std::advance(it, rng_.index(reserved_.size()));
    (void)state_.release_reservation(it->second);
    reserved_.erase(it);
  }

  void background() {
    // Mostly small load; occasionally enough to saturate a processor, so
    // the sentinel paths get exercised too.
    const double amount =
        rng_.bernoulli(0.1) ? 1.2 : rng_.uniform_real(0.0, 0.05);
    state_.add_background(
        ProcessorId(static_cast<std::int32_t>(rng_.index(kProcessors))),
        amount);
  }

  Rng rng_;
  bool guarded_;
  core::SchedulingState state_;
  std::int32_t next_id_ = 1;
  std::map<JobId, sched::TaskSpec> jobs_;
  std::map<TaskId, sched::TaskSpec> reserved_;
};

TEST(IncrementalAubProperty, CachedLhsTracksRecomputeUnderChurn) {
  // Unguarded: force-admissions and saturating background included — the
  // cached-LHS contract holds for any book, reachable or not.
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    ChurnDriver driver(seed, /*guarded=*/false);
    for (int i = 0; i < 600; ++i) {
      driver.step();
      if (i % 16 == 0) driver.verify_cached_lhs();
    }
    driver.verify_cached_lhs();
    EXPECT_GT(driver.active_jobs(), 0u) << "seed " << seed;
  }
}

TEST(IncrementalAubProperty, DecisionsMatchFullRescanUnderChurn) {
  // Guarded: only admission-tested placements are booked, so every
  // registered footprint satisfies Equation (1) — the invariant under
  // which skipping non-intersecting footprints is decision-equivalent to
  // the full rescan.
  for (const std::uint64_t seed : {5u, 17u, 83u}) {
    ChurnDriver driver(seed, /*guarded=*/true);
    for (int i = 0; i < 400; ++i) {
      driver.step();
      driver.verify_decision();
    }
  }
}

}  // namespace
}  // namespace rtcm
