// The admission controller's book of record.
//
// Tracks, on top of the synthetic-utilization ledger:
//   - per-job admissions: contributions added at release, removed at the
//     job's absolute deadline or earlier via idle resetting;
//   - per-task reservations (AC per Task): contributions held for the
//     task's whole lifetime, immune to idle resetting;
//   - the footprints of everything currently admitted, mirrored into an
//     incremental AdmissionIndex so an arrival only re-tests the footprints
//     its placement intersects (sched/admission_index.h).  The full
//     footprint list stays available for the reconfiguration engine and for
//     the full-rescan differential test.
//
// The book owns every contribution: each row keeps the ledger units its
// stages added (0 once reset), and expiry, reset and release hand exactly
// those back.  The integer totals then depend only on which rows are live,
// so a rolled-back reconfiguration leaves every total as it was.
//
// Storage is struct-of-arrays: jobs and reservations live in dense slabs
// (parallel columns, swap-with-last removal) keyed by open-addressing
// id -> row tables, placements and per-stage units sit inline in their
// rows (<= 4 stages) spilling into the cell's MonotonicArena beyond that
// (the list columns keep their high-water length, so a freed row's spill
// buffer is reused by the next row, never abandoned in the arena).
// latest_deadline_touching scans the live job rows: its one caller runs
// once per drain and scans the whole task set anyway, so no per-processor
// index is kept up to date on every admit and expire for it.
// Admit/expire/reset churn at fixed capacity allocates nothing once the
// slabs are warm (tests/sim_alloc_test.cpp pins this with a counting
// allocator).
//
// A std::map-backed book lives on as a test-only shadow
// (tests/shadow_book.h): it mirrors every mutator and compares totals
// exactly, and rows through the public views below, after each one.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "events/placement.h"
#include "sched/admission_index.h"
#include "sched/aub.h"
#include "sched/task.h"
#include "sched/utilization_ledger.h"
#include "util/arena.h"
#include "util/ids.h"
#include "util/slab.h"
#include "util/small_vec.h"
#include "util/time.h"

namespace rtcm::core {

class SchedulingState {
 public:
  /// Read-only view of one admitted job's row; the spans point into the
  /// slab and are invalidated by the next mutation.
  struct JobView {
    TaskId task;
    JobId job;
    Time absolute_deadline;
    sched::FootprintId footprint;
    std::span<const ProcessorId> placement;
    /// Ledger units each stage holds (0 once that stage was reset).
    std::span<const sched::UtilizationLedger::Units> units;
  };

  struct ReservationView {
    TaskId task;
    sched::FootprintId footprint;
    std::span<const ProcessorId> placement;
    std::span<const sched::UtilizationLedger::Units> units;
  };

  /// Spill storage beyond the inline row capacity comes from `arena` (the
  /// owning SystemRuntime's cell arena); when null, the state owns a
  /// private arena.
  explicit SchedulingState(util::MonotonicArena* arena = nullptr);
  SchedulingState(const SchedulingState&) = delete;
  SchedulingState& operator=(const SchedulingState&) = delete;

  [[nodiscard]] const sched::UtilizationLedger& ledger() const {
    return ledger_;
  }

  /// The incremental admission aggregates, kept in lockstep with the ledger
  /// by every mutator below; AdmissionControl runs Equation (1) against
  /// this instead of rescanning current_footprints().
  [[nodiscard]] const sched::AdmissionIndex& admission_index() const {
    return index_;
  }

  /// Footprints of every admitted-and-unexpired job plus every reservation,
  /// as Equation (1) must keep holding for all of them.  The incremental
  /// path never materializes this list; it feeds the reconfiguration
  /// engine's scans and the full-rescan differential test.
  [[nodiscard]] std::vector<sched::TaskFootprint> current_footprints() const;

  // --- Per-job admissions --------------------------------------------------

  /// Add stage contributions for an admitted job.
  void admit_job(const sched::TaskSpec& spec, JobId job,
                 std::span<const ProcessorId> placement,
                 Time absolute_deadline);
  void admit_job(const sched::TaskSpec& spec, JobId job,
                 std::initializer_list<ProcessorId> placement,
                 Time absolute_deadline) {
    admit_job(spec, job,
              std::span<const ProcessorId>(placement.begin(),
                                           placement.size()),
              absolute_deadline);
  }

  [[nodiscard]] bool has_job(JobId job) const {
    return job_index_.contains(job.value());
  }
  [[nodiscard]] std::optional<JobView> job(JobId job) const;
  [[nodiscard]] std::size_t active_jobs() const { return job_ids_.size(); }

  /// Remove all remaining contributions of a job (deadline expiry).  No-op
  /// for unknown jobs, so expiry timers and resets compose safely.
  void expire_job(JobId job);

  /// Idle resetting: remove the contribution of one completed subjob.
  /// Returns true if a live contribution was removed.  Reservations are
  /// never affected (there is no per-job entry for them).
  bool reset_subjob(JobId job, std::size_t stage);

  /// Latest absolute deadline over in-flight per-job admissions whose
  /// placement touches any of `nodes`; Time::epoch() when none do.  The
  /// reconfiguration engine uses this to size quiesce windows: an admitted
  /// job is guaranteed complete by its deadline, so a drained host is
  /// certainly silent after the last such deadline.  O(in-flight jobs).
  [[nodiscard]] Time latest_deadline_touching(
      const std::set<ProcessorId>& nodes) const;

  // --- Background load -------------------------------------------------------

  /// Permanently reserve utilization on one processor without adding a task
  /// footprint (used for deferrable-server interference: the servers load
  /// the processors but are not themselves subject to Equation (1)).
  void add_background(ProcessorId proc, double utilization);

  // --- Per-task reservations (AC per Task) ---------------------------------

  void reserve_task(const sched::TaskSpec& spec,
                    std::span<const ProcessorId> placement);
  void reserve_task(const sched::TaskSpec& spec,
                    std::initializer_list<ProcessorId> placement) {
    reserve_task(spec, std::span<const ProcessorId>(placement.begin(),
                                                    placement.size()));
  }

  [[nodiscard]] bool is_reserved(TaskId task) const {
    return res_index_.contains(task.value());
  }
  [[nodiscard]] std::optional<ReservationView> reservation(TaskId task) const;

  /// Visit every standing reservation (the reconfiguration engine scans
  /// these for placements touching a drained processor).  Rows come in
  /// slab order — callers needing a canonical order sort what they
  /// collect.  `fn` must not mutate this state.
  template <typename Fn>
  void for_each_reservation(Fn&& fn) const {
    for (std::uint32_t row = 0; row < res_ids_.size(); ++row) {
      fn(reservation_view(row));
    }
  }

  [[nodiscard]] std::size_t reservation_count() const {
    return res_ids_.size();
  }

  /// Remove a reservation and return its placement (for LB-per-Job plan
  /// moves: release, re-test with the new placement, re-reserve whichever
  /// placement won).
  events::Placement release_reservation(const sched::TaskSpec& spec);

  // --- Memory accounting ---------------------------------------------------

  /// Heap bytes held by the book's slabs, ledger and index (excludes the
  /// arena — see arena()).
  [[nodiscard]] std::size_t footprint_bytes() const;
  /// The arena backing this book's spilled rows (owned or injected).
  [[nodiscard]] const util::MonotonicArena& arena() const { return *arena_; }

 private:
  [[nodiscard]] JobView job_view(std::uint32_t row) const;
  [[nodiscard]] ReservationView reservation_view(std::uint32_t row) const;

  /// Push the term deltas of every distinct processor in `placement` into
  /// the index after their ledger totals changed.
  void refresh_placement(std::span<const ProcessorId> placement);

  std::unique_ptr<util::MonotonicArena> own_arena_;
  util::MonotonicArena* arena_;

  sched::UtilizationLedger ledger_;
  sched::AdmissionIndex index_;

  // Job slab (parallel columns; dense rows, swap-with-last removal).
  util::IdSlotMap job_index_;
  std::vector<JobId> job_ids_;
  std::vector<TaskId> job_task_;
  std::vector<Time> job_deadline_;
  std::vector<sched::FootprintId> job_footprint_;
  // The list columns below are never shrunk: rows past job_ids_.size() are
  // free and keep their spill buffers for the next admissions.
  std::vector<util::SmallVec<ProcessorId, 4>> job_placement_;
  std::vector<util::SmallVec<sched::UtilizationLedger::Units, 4>> job_units_;

  // Reservation slab.
  util::IdSlotMap res_index_;
  std::vector<TaskId> res_ids_;
  std::vector<sched::FootprintId> res_footprint_;
  // Never shrunk, like the job list columns.
  std::vector<util::SmallVec<ProcessorId, 4>> res_placement_;
  std::vector<util::SmallVec<sched::UtilizationLedger::Units, 4>> res_units_;
};

}  // namespace rtcm::core
