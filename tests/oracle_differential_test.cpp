// Differential tests of the admission path against its references.
//
// Admission.  AdmissionControl decides Equation (1) incrementally through
// the book's AdmissionIndex, which re-checks only the footprints a
// candidate touches.  reference::aub_admission_test (tests/reference/aub.h)
// re-checks every admitted footprint.  Every grid of the scenario library
// is stepped event by event at seed 1 over a 10 s horizon; after each step
// that changed the AC's counters, every task's all-primaries placement is
// tested both ways against the live book, and the decision and the
// candidate's LHS must be bitwise equal.
//
// Book.  The struct-of-arrays book of record runs under the map-backed
// shadow of tests/shadow_book.h over churn drawn from every library
// grid's task set: totals and the index's cached LHS against a fresh
// recompute exactly, rows field for field.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/admission_control.h"
#include "core/runtime.h"
#include "reconfig/manager.h"
#include "scenario/library.h"
#include "scenario/scenario.h"
#include "reference/aub.h"
#include "shadow_book.h"
#include "sweep/sweep.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/burst.h"
#include "workload/generator.h"

namespace rtcm {
namespace {

constexpr std::uint64_t kSeed = 1;
const Duration kHorizon = Duration::seconds(10);

auto counters_key(const core::AdmissionControl::Counters& c) {
  return std::make_tuple(c.admission_tests, c.admits, c.rejects,
                         c.auto_accepts, c.reservation_moves, c.subjobs_reset,
                         c.migrations, c.drain_unplaceable);
}

/// Every cell of a library grid at seed 1, horizon 10 s.
std::vector<scenario::ScenarioSpec> grid_specs(scenario::NamedGrid entry) {
  entry.grid.seeds = 1;
  entry.params.base.horizon = kHorizon;
  std::vector<scenario::ScenarioSpec> specs;
  for (const sweep::Cell& cell : entry.grid.cells()) {
    for (const sweep::ShapeSpec& shape : entry.grid.shapes) {
      if (shape.name != cell.shape) continue;
      auto spec = sweep::cell_spec(cell, shape.shape, entry.params);
      EXPECT_TRUE(spec.is_ok()) << spec.message();
      if (spec.is_ok()) specs.push_back(std::move(spec).value());
    }
  }
  EXPECT_FALSE(specs.empty()) << entry.name;
  return specs;
}

sched::TaskSet spec_tasks(const scenario::ScenarioSpec& spec, Rng& rng) {
  return spec.workload.kind == scenario::WorkloadSpec::Kind::kGenerated
             ? workload::generate_workload(spec.workload.shape, rng)
             : spec.workload.tasks;
}

struct AdmissionRun {
  std::uint64_t checked_steps = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t rejections = 0;  // comparisons where both sides rejected
  std::uint64_t mismatches = 0;
};

/// Step one scenario and compare the two admission tests after every step
/// that moved the AC's counters.
AdmissionRun step_and_compare(const scenario::ScenarioSpec& spec) {
  AdmissionRun out;
  Rng rng(spec.seed);
  core::SystemRuntime runtime(spec.config, spec_tasks(spec, rng));
  EXPECT_TRUE(runtime.assemble().is_ok()) << spec.name;
  std::unique_ptr<reconfig::ReconfigurationManager> manager;
  if (!spec.reconfig.empty()) {
    manager = std::make_unique<reconfig::ReconfigurationManager>(runtime);
    EXPECT_TRUE(manager->schedule_script(spec.reconfig).is_ok());
  }
  Rng arrival_rng = rng.fork(1);
  const Time horizon = Time::epoch() + spec.horizon;
  const std::vector<core::Arrival> arrivals =
      spec.arrivals.kind == scenario::ArrivalModel::Kind::kBursty
          ? workload::generate_bursty_arrivals(
                runtime.tasks(), horizon, spec.arrivals.burst, arrival_rng)
          : workload::generate_arrivals(runtime.tasks(), horizon,
                                        arrival_rng);
  EXPECT_TRUE(runtime.inject_arrivals(arrivals).is_ok());

  // Each task's all-primaries candidate, built once.
  std::vector<std::vector<sched::CandidateStage>> candidates;
  for (const sched::TaskSpec& task : runtime.tasks().tasks()) {
    std::vector<sched::CandidateStage>& stages = candidates.emplace_back();
    for (std::size_t j = 0; j < task.stage_count(); ++j) {
      stages.push_back({task.subtasks[j].primary, task.subtask_utilization(j)});
    }
  }

  const Time end = horizon + spec.drain;
  sim::Simulator& sim = runtime.simulator();
  auto last = counters_key(runtime.admission_control()->counters());
  while (sim.now() <= end && sim.step()) {
    const core::AdmissionControl* ac = runtime.admission_control();
    const auto now = counters_key(ac->counters());
    if (now == last) continue;
    last = now;
    ++out.checked_steps;
    const core::SchedulingState& state = ac->state();
    const std::vector<reference::TaskFootprint> footprints =
        reference::current_footprints(state);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const TaskId task = runtime.tasks().tasks()[i].id;
      const sched::AdmissionDecision incremental =
          state.admission_index().admission_test(state.ledger(), task,
                                                 candidates[i]);
      const sched::AdmissionDecision full = reference::aub_admission_test(
          state.ledger(), task, candidates[i], footprints);
      ++out.comparisons;
      if (!full.admitted) ++out.rejections;
      if (incremental.admitted != full.admitted ||
          std::bit_cast<std::uint64_t>(incremental.candidate_lhs) !=
              std::bit_cast<std::uint64_t>(full.candidate_lhs)) {
        if (out.mismatches++ < 5) {
          ADD_FAILURE() << spec.name << " at " << sim.now().to_string()
                        << ", " << task.to_string() << ": incremental "
                        << incremental.admitted << " lhs "
                        << incremental.candidate_lhs << " vs full "
                        << full.admitted << " lhs " << full.candidate_lhs;
        }
      }
    }
  }
  return out;
}

TEST(OracleDifferentialTest, AdmissionIndexMatchesFullRescanOnEveryGrid) {
  std::uint64_t rejections = 0;
  for (const scenario::NamedGrid& entry : scenario::library()) {
    AdmissionRun grid;
    for (const scenario::ScenarioSpec& spec : grid_specs(entry)) {
      const AdmissionRun run = step_and_compare(spec);
      grid.checked_steps += run.checked_steps;
      grid.comparisons += run.comparisons;
      grid.rejections += run.rejections;
      grid.mismatches += run.mismatches;
    }
    EXPECT_EQ(grid.mismatches, 0u) << entry.name;
    EXPECT_GT(grid.checked_steps, 0u) << entry.name;
    rejections += grid.rejections;
  }
  // Both branches of Equation (1) must have been compared.
  EXPECT_GT(rejections, 0u);
}

TEST(OracleDifferentialTest, BookMatchesMapShadowOnEveryGridWorkload) {
  for (const scenario::NamedGrid& entry : scenario::library()) {
    const scenario::ScenarioSpec spec = grid_specs(entry).front();
    Rng rng(spec.seed);
    const sched::TaskSet tasks = spec_tasks(spec, rng);
    rtcm::testing::ShadowedBook book;
    const rtcm::testing::ChurnCoverage coverage =
        rtcm::testing::run_book_churn(book, tasks, spec.seed, 400);
    EXPECT_EQ(book.mismatches(), 0u) << entry.name;
    EXPECT_GT(coverage.admits, 0u) << entry.name;
    EXPECT_EQ(book.book().active_jobs(), 0u) << entry.name;
  }
}

}  // namespace
}  // namespace rtcm
