// A map-backed shadow of the admission book of record, for tests.
//
// ShadowedBook owns a core::SchedulingState and forwards every mutator to
// it and to a std::map shadow that keeps the book node-based: per-row
// stage units, converted with the ledger's one conversion
// (UtilizationLedger::units), and per-processor unit totals, so processor
// totals must match *exactly*.  After each mutation the two are compared
// through the book's public views only:
//   - ledger(): every processor total, in units;
//   - job() / reservation(): task, deadline, footprint handle, placement
//     and per-stage units of every row, plus the row counts;
//   - admission_index(): one footprint per row, each footprint's cached
//     LHS against a fresh aub_lhs() recompute over the row's placement
//     (this is what catches an index that missed a ledger change);
//   - latest_deadline_touching(): per processor, against a scan of the
//     shadow's jobs.
// Mismatches are reported as gtest failures (the first few in detail) and
// counted, so a test can assert mismatches() == 0 at the end.
//
// run_book_churn() drives a ShadowedBook through randomized admit / expire
// / reset / reserve / release / background churn over a task set.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/scheduling_state.h"
#include "events/placement.h"
#include "sched/admission_index.h"
#include "sched/aub.h"
#include "sched/task.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/time.h"

namespace rtcm::testing {

class ShadowedBook {
 public:
  [[nodiscard]] const core::SchedulingState& book() const { return book_; }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

  void admit_job(const sched::TaskSpec& spec, JobId job,
                 std::span<const ProcessorId> placement,
                 Time absolute_deadline) {
    book_.admit_job(spec, job, placement, absolute_deadline);
    const auto view = book_.job(job);
    if (!view) {
      fail("admitted job has no row");
      return;
    }
    Row row = shadow_add(spec, placement, absolute_deadline, view->footprint);
    jobs_.emplace(job.value(), std::move(row));
    verify();
  }

  void expire_job(JobId job) {
    book_.expire_job(job);
    const auto it = jobs_.find(job.value());
    if (it != jobs_.end()) {
      shadow_remove(it->second);  // reset stages hold 0
      jobs_.erase(it);
    }
    verify();
  }

  bool reset_subjob(JobId job, std::size_t stage) {
    const bool removed = book_.reset_subjob(job, stage);
    bool shadow_removed = false;
    const auto it = jobs_.find(job.value());
    if (it != jobs_.end() && stage < it->second.units.size() &&
        it->second.units[stage] != 0) {
      totals_[it->second.placement[stage].value()] -= it->second.units[stage];
      it->second.units[stage] = 0;
      shadow_removed = true;
    }
    if (removed != shadow_removed) fail("reset_subjob() outcome");
    verify();
    return removed;
  }

  void add_background(ProcessorId proc, double utilization) {
    book_.add_background(proc, utilization);
    // Background load is never removed, so no row keeps its units.
    totals_[proc.value()] += sched::UtilizationLedger::units(utilization);
    verify();
  }

  void reserve_task(const sched::TaskSpec& spec,
                    std::span<const ProcessorId> placement) {
    book_.reserve_task(spec, placement);
    const auto view = book_.reservation(spec.id);
    if (!view) {
      fail("reserved task has no row");
      return;
    }
    Row row = shadow_add(spec, placement, Time::epoch(), view->footprint);
    reservations_.emplace(spec.id.value(), std::move(row));
    verify();
  }

  std::vector<ProcessorId> release_reservation(const sched::TaskSpec& spec) {
    std::vector<ProcessorId> placement = book_.release_reservation(spec);
    const auto it = reservations_.find(spec.id.value());
    if (it == reservations_.end()) {
      fail("released a reservation the shadow does not hold");
    } else {
      if (placement != it->second.placement) {
        fail("release_reservation() placement");
      }
      shadow_remove(it->second);
      reservations_.erase(it);
    }
    verify();
    return placement;
  }

 private:
  struct Row {
    TaskId task;
    std::vector<ProcessorId> placement;
    Time deadline;  // jobs only
    std::vector<sched::UtilizationLedger::Units> units;  // 0 once reset
    sched::FootprintId footprint;
  };

  // One stage contribution per placement entry, in the ledger's units.
  Row shadow_add(const sched::TaskSpec& spec,
                 std::span<const ProcessorId> placement, Time deadline,
                 sched::FootprintId footprint) {
    Row row{spec.id, {placement.begin(), placement.end()}, deadline, {},
            footprint};
    for (std::size_t j = 0; j < placement.size(); ++j) {
      row.units.push_back(
          sched::UtilizationLedger::units(spec.subtask_utilization(j)));
      totals_[placement[j].value()] += row.units.back();
    }
    return row;
  }

  void shadow_remove(const Row& row) {
    for (std::size_t j = 0; j < row.placement.size(); ++j) {
      totals_[row.placement[j].value()] -= row.units[j];
    }
  }

  void fail(const std::string& what) {
    if (mismatches_++ < 5) {
      ADD_FAILURE() << "book diverged from the map-backed shadow after "
                    << checks_ << " checks: " << what;
    }
  }

  void verify_row(const Row& row, TaskId task,
                  std::span<const ProcessorId> placement,
                  std::span<const sched::UtilizationLedger::Units> units,
                  sched::FootprintId footprint, const std::string& what) {
    if (task != row.task) fail(what + " task");
    if (footprint != row.footprint) fail(what + " footprint handle");
    if (!std::ranges::equal(placement, row.placement)) {
      fail(what + " placement");
    }
    if (!std::ranges::equal(units, row.units)) fail(what + " stage units");
    // The index's cached terms must follow every ledger change on the
    // row's processors.  Summation order differs (count x term against
    // one term per visit), so this one comparison is not bitwise.
    const auto& index = book_.admission_index();
    const double cached = index.cached_lhs(row.footprint);
    const double fresh = sched::aub_lhs(book_.ledger(), row.placement);
    if (std::abs(cached - fresh) > 1e-12 * std::max(1.0, std::abs(fresh))) {
      fail(what + " cached LHS " + std::to_string(cached) + " vs fresh " +
           std::to_string(fresh));
    }
  }

  void verify() {
    ++checks_;
    const sched::UtilizationLedger& ledger = book_.ledger();
    for (const auto& [proc, total] : totals_) {
      if (ledger.total_units(ProcessorId(proc)) != total) {
        fail("processor total (units) on P" + std::to_string(proc));
      }
    }
    if (book_.active_jobs() != jobs_.size()) fail("active job count");
    for (const auto& [id, row] : jobs_) {
      const auto view = book_.job(JobId(id));
      if (!view) {
        fail("job missing from the book");
        continue;
      }
      if (view->absolute_deadline != row.deadline) fail("job deadline");
      verify_row(row, view->task, view->placement, view->units,
                 view->footprint, "job");
    }
    if (book_.reservation_count() != reservations_.size()) {
      fail("reservation count");
    }
    for (const auto& [id, row] : reservations_) {
      const auto view = book_.reservation(TaskId(id));
      if (!view) {
        fail("reservation missing from the book");
        continue;
      }
      verify_row(row, view->task, view->placement, view->units,
                 view->footprint, "reservation");
    }
    if (book_.admission_index().footprint_count() !=
        jobs_.size() + reservations_.size()) {
      fail("registered footprint count");
    }
    for (const auto& [proc, unused] : totals_) {
      Time latest = Time::epoch();
      for (const auto& [id, row] : jobs_) {
        if (std::ranges::find(row.placement, ProcessorId(proc)) !=
            row.placement.end()) {
          latest = std::max(latest, row.deadline);
        }
      }
      if (book_.latest_deadline_touching({ProcessorId(proc)}) != latest) {
        fail("latest_deadline_touching P" + std::to_string(proc));
      }
    }
  }

  core::SchedulingState book_;
  // Unit totals by ProcessorId::value.
  std::map<std::int32_t, sched::UtilizationLedger::Units> totals_;
  std::map<std::int32_t, Row> jobs_;          // by JobId::value
  std::map<std::int32_t, Row> reservations_;  // by TaskId::value
  std::uint64_t checks_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// What a churn run exercised, so tests can require coverage.
struct ChurnCoverage {
  std::size_t admits = 0;
  /// Admitted placements past the inline list capacity (more than 5
  /// stages): rows whose lists live in heap blocks.
  std::size_t spilled_admits = 0;
  std::size_t expiries = 0;
  std::size_t resets = 0;
  std::size_t reservations = 0;
  std::size_t releases = 0;
  std::size_t backgrounds = 0;
  /// Ledger units of all background load added (never removed).
  sched::UtilizationLedger::Units background_units = 0;
};

/// `steps` random mutations of `book` over `tasks`, then a full drain
/// (every job expired, every reservation released).  Placements pick a
/// random candidate per stage, so repeated processors occur; expiries pick
/// random rows, forcing swap-with-last moves and slot reuse.
inline ChurnCoverage run_book_churn(ShadowedBook& book,
                                    const sched::TaskSet& tasks,
                                    std::uint64_t seed, int steps) {
  Rng rng(seed);
  ChurnCoverage coverage;
  struct LiveJob {
    JobId job;
    const sched::TaskSpec* spec;
  };
  std::vector<LiveJob> live;
  std::vector<const sched::TaskSpec*> reserved;
  std::int32_t next_job = 0;
  auto placement_for = [&rng](const sched::TaskSpec& spec) {
    std::vector<ProcessorId> placement;
    for (const sched::SubtaskSpec& st : spec.subtasks) {
      const std::vector<ProcessorId> candidates = st.candidates();
      placement.push_back(candidates[rng.index(candidates.size())]);
    }
    return placement;
  };

  for (int step = 0; step < steps; ++step) {
    const std::size_t roll = rng.index(20);
    if (roll < 8) {  // admit
      const sched::TaskSpec& spec = tasks.tasks()[rng.index(tasks.size())];
      const JobId job(next_job++);
      book.admit_job(spec, job, placement_for(spec),
                     Time(step * 1000 + 100000));
      live.push_back({job, &spec});
      ++coverage.admits;
      if (spec.stage_count() > events::Placement::kInline) {
        ++coverage.spilled_admits;
      }
    } else if (roll < 12) {  // expire (random row -> swap-with-last move)
      if (live.empty()) continue;
      const std::size_t i = rng.index(live.size());
      book.expire_job(live[i].job);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      ++coverage.expiries;
    } else if (roll < 16) {  // reset one stage
      if (live.empty()) continue;
      const LiveJob& pick = live[rng.index(live.size())];
      (void)book.reset_subjob(pick.job, rng.index(pick.spec->stage_count()));
      ++coverage.resets;
    } else if (roll < 19) {  // reserve / release
      const sched::TaskSpec& spec = tasks.tasks()[rng.index(tasks.size())];
      if (book.book().is_reserved(spec.id)) {
        (void)book.release_reservation(spec);
        std::erase(reserved, &spec);
        ++coverage.releases;
      } else {
        book.reserve_task(spec, placement_for(spec));
        reserved.push_back(&spec);
        ++coverage.reservations;
      }
    } else {  // permanent background load on one processor
      const std::vector<ProcessorId> procs = tasks.processors();
      const ProcessorId proc = procs[rng.index(procs.size())];
      const double u = 0.001 * static_cast<double>(1 + rng.index(10));
      book.add_background(proc, u);
      ++coverage.backgrounds;
      coverage.background_units += sched::UtilizationLedger::units(u);
    }
  }

  for (const LiveJob& j : live) book.expire_job(j.job);
  for (const sched::TaskSpec* spec : reserved) {
    (void)book.release_reservation(*spec);
  }
  return coverage;
}

}  // namespace rtcm::testing
