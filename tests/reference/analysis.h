// Offline analysis helpers for task sets, for tests.
//
// These answer "paper-shaped" questions about a static workload before any
// simulation runs: the per-processor synthetic utilization if every task
// arrived simultaneously (the quantity the §7.1/§7.2 generators calibrate to
// 0.5 / 0.7), and a whole-set AUB feasibility check.
#pragma once

#include <map>
#include <vector>

#include "reference/aub.h"
#include "sched/task.h"

namespace rtcm::reference {

/// Synthetic utilization each processor would carry if every task in `set`
/// released one job at the same instant, with every subtask on its primary.
/// Ordered by processor id so iteration is deterministic: callers feed
/// these totals into reports and assertions (rtcm-lint's
/// unordered-iteration rule is why this is not an unordered_map).
[[nodiscard]] std::map<ProcessorId, double> simultaneous_utilization(
    const sched::TaskSet& set);

/// Largest per-processor value from simultaneous_utilization().
[[nodiscard]] double peak_simultaneous_utilization(const sched::TaskSet& set);

/// Whole-set feasibility: with all tasks' contributions in place (primaries
/// only), does Equation (1) hold for every task?  This is the offline analog
/// of admitting the whole set at once.
struct FeasibilityReport {
  bool feasible = false;
  /// LHS of Equation (1) per task, in task order.
  std::vector<double> lhs;
  /// First task that violates the bound (valid only when infeasible).
  TaskId first_violation;
};

[[nodiscard]] FeasibilityReport analyze_feasibility(const sched::TaskSet& set);

/// A task's footprint on its primary processors (stage order).
[[nodiscard]] TaskFootprint primary_footprint(const sched::TaskSpec& task);

}  // namespace rtcm::reference
