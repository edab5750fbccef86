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
// or at the job's deadline as a backstop — the same lifecycle machinery as
// AUB synthetic utilization, which is what lets the AC component host both
// analyses behind one configuration attribute.
//
// Periodic tasks under DS mode are still admitted with the AUB test; the
// servers appear there as a permanent background utilization of 2B/P per
// processor (the deferrable server's back-to-back interference on
// lower-priority work).
#pragma once

#include <map>
#include <vector>

#include "events/placement.h"
#include "sched/task.h"
#include "sched/utilization_ledger.h"
#include "util/ids.h"
#include "util/time.h"

namespace rtcm::sched {

struct DsServerConfig {
  Duration budget = Duration::milliseconds(25);
  Duration period = Duration::milliseconds(100);
  /// Per-message middleware/communication cost budgeted into the bound (the
  /// deployer measures it, e.g. with the Figure 8 harness).
  Duration hop_overhead = Duration::zero();

  [[nodiscard]] double utilization() const { return budget.ratio(period); }
  /// Interference reserved against periodic tasks (back-to-back effect).
  [[nodiscard]] double periodic_interference() const {
    return 2.0 * utilization();
  }
  /// Worst-case service startup gap for the server's own queue.
  [[nodiscard]] Duration max_latency() const { return period - budget; }
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
  /// processor per stage.
  [[nodiscard]] std::vector<Duration> stage_bounds(
      const TaskSpec& task, const events::Placement& placement) const;

  /// End-to-end delay bound for executing `task` on `placement` given the
  /// current backlogs: last stage bound plus the admission round trip
  /// (2 * hop_overhead).
  [[nodiscard]] Duration delay_bound(
      const TaskSpec& task, const events::Placement& placement) const;

  /// True iff the delay bound fits the task's end-to-end deadline.
  [[nodiscard]] bool admissible(
      const TaskSpec& task, const events::Placement& placement) const;

  /// Register an admitted job's backlog; one handle per stage.
  [[nodiscard]] std::vector<ContributionId> add_backlog(
      const TaskSpec& task, const events::Placement& placement);

  /// Remove one stage's backlog (idle reset / completion).  Idempotent.
  bool remove_backlog(ContributionId id) { return backlog_.remove(id); }

  /// Queued-but-unexpired execution on one processor's server.
  [[nodiscard]] Duration backlog(ProcessorId proc) const {
    return Duration(static_cast<std::int64_t>(backlog_.total(proc)));
  }

 private:
  DsServerConfig config_;
  /// Amounts stored as microseconds of execution backlog.
  UtilizationLedger backlog_;
};

}  // namespace rtcm::sched
