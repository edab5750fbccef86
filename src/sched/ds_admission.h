// Deferrable-Server-based admission control for aperiodic tasks.
//
// The alternative analysis to the aperiodic utilization bound (paper §2):
// each application processor runs a deferrable server (budget B, period P)
// that serves aperiodic subjobs in admission order at a priority above all
// periodic work.  A server is a bounded-delay resource: in any interval it
// supplies execution at rate B/P after a worst-case startup gap of (P - B)
// (budget just exhausted at arrival).  One subjob with execution C behind a
// backlog W of earlier-admitted work on that server therefore finishes
// within
//
//     delay(hop) <= (P - B) + (W + C) * P / B  (+ hop_overhead)
//
// and an aperiodic task is admitted iff the sum of its per-hop delay bounds
// (plus the admission round trip) fits its end-to-end deadline.  Admitted
// jobs register their backlog (W) on every hop; each stage's backlog is
// released at its *predicted completion bound* (always at or after the real
// completion), earlier when the idle resetter reports the subjob complete,
// or at the job's deadline as a backstop — the same lifecycle as AUB
// synthetic utilization, which is what lets the AC component host both
// analyses behind one configuration attribute.  Backlogs are integer
// microseconds, and each job's per-stage records live here.
//
// Periodic tasks under DS mode are still admitted with the AUB test; the
// servers appear there as a permanent background utilization of 2B/P per
// processor (the deferrable server's back-to-back interference on
// lower-priority work).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "events/placement.h"
#include "sched/task.h"
#include "util/ids.h"
#include "util/slab.h"
#include "util/time.h"

namespace rtcm::sched {

struct DsServerConfig {
  Duration budget = Duration::milliseconds(25);
  Duration period = Duration::milliseconds(100);
  /// Per-message middleware/communication cost budgeted into the bound (the
  /// deployer measures it, e.g. with the Figure 8 harness).
  Duration hop_overhead = Duration::zero();

  [[nodiscard]] bool operator==(const DsServerConfig&) const = default;

  [[nodiscard]] double utilization() const { return budget.ratio(period); }
  /// Interference reserved against periodic tasks (back-to-back effect).
  [[nodiscard]] double periodic_interference() const {
    return 2.0 * utilization();
  }
  /// Worst-case service startup gap for the server's own queue.
  [[nodiscard]] Duration max_latency() const { return period - budget; }
  /// The admission round trip (Task Arrive, then Accept) the bound budgets
  /// before the first stage is released.
  [[nodiscard]] Duration round_trip() const { return hop_overhead * 2; }
};

/// Backlog bookkeeping plus the delay-bound admission test.
class DsAdmission {
 public:
  /// All processors share one server configuration (one server instance per
  /// processor).
  explicit DsAdmission(DsServerConfig config) : config_(config) {}

  [[nodiscard]] const DsServerConfig& config() const { return config_; }

  /// Cumulative completion bound per stage (relative to the job's release),
  /// including one hop_overhead per stage.  Placement must have one
  /// processor per stage.  The span is a reused scratch buffer, valid until
  /// the next call.
  [[nodiscard]] std::span<const Duration> stage_bounds(
      const TaskSpec& task, const events::Placement& placement) const;

  /// End-to-end delay bound from the stage bounds stage_bounds() returned:
  /// the last stage's bound plus the admission round trip.  A job is
  /// admissible iff this fits its end-to-end deadline.
  [[nodiscard]] Duration end_to_end_bound(
      std::span<const Duration> stage_bounds) const {
    return stage_bounds.back() + config_.round_trip();
  }

  /// Register an admitted job's backlog, stage by stage.
  void admit(JobId job, const TaskSpec& task,
             const events::Placement& placement);
  /// Release one stage's backlog (predicted completion or idle reset);
  /// false when the job is unknown or the stage was already released.
  bool release_stage(JobId job, std::size_t stage);
  /// Release what the job still holds and forget it (deadline backstop).
  void expire(JobId job);

  /// Queued-but-unexpired execution on one processor's server.
  [[nodiscard]] Duration backlog(ProcessorId proc) const {
    const std::uint32_t slot = proc_index_.lookup(proc.value());
    return slot == util::IdSlotMap::kNoSlot ? Duration::zero()
                                            : Duration(backlog_[slot]);
  }

  /// Jobs holding stage records (admitted and not yet expired).
  [[nodiscard]] std::size_t active_jobs() const { return job_ids_.size(); }

 private:
  struct StageRecord {
    std::uint32_t proc_slot = 0;  // into backlog_
    std::int64_t usec = 0;        // 0 once released
  };

  DsServerConfig config_;
  // Per-processor backlog (microseconds), by dense slot.
  util::IdSlotMap proc_index_;
  std::vector<std::int64_t> backlog_;
  // Per-job stage records in dense rows (swap-with-last removal); stages_
  // never shrinks, so freed rows keep their buffers for reuse.
  util::IdSlotMap job_index_;
  std::vector<JobId> job_ids_;
  std::vector<std::vector<StageRecord>> stages_;

  /// stage_bounds() scratch.
  mutable std::vector<Duration> bounds_;
};

}  // namespace rtcm::sched
