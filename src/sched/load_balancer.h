// Load balancing heuristic (paper §4.4).
//
// When a task (or job, under LB per Job) is about to be admitted, each of its
// subtasks is assigned to the processor with the lowest synthetic utilization
// among the processors holding a replica of the corresponding application
// component (criterion C3).  The assignment is greedy per stage and accounts
// for the utilization the earlier stages of the same candidate would add, so
// two stages of one task spread out instead of piling onto the same
// lightly-loaded processor.  Already-admitted tasks are never migrated.
#pragma once

#include <functional>
#include <vector>

#include "events/placement.h"
#include "sched/task.h"
#include "sched/utilization_ledger.h"

namespace rtcm::sched {

/// Assignment policies, used by the ablation bench alongside the paper's
/// heuristic.
enum class PlacementPolicy {
  kLowestUtilization,  // the paper's heuristic
  kPrimaryOnly,        // no balancing: always the primary processor
  kRandomReplica,      // uniform choice among candidates (ablation baseline)
};

/// Produces one processor per stage of `task`.  For kRandomReplica the
/// caller provides a pick function (index in [0, n)) so determinism stays
/// with the caller's RNG.
class LoadBalancer {
 public:
  explicit LoadBalancer(
      PlacementPolicy policy = PlacementPolicy::kLowestUtilization)
      : policy_(policy) {}

  void set_random_pick(std::function<std::size_t(std::size_t)> pick) {
    random_pick_ = std::move(pick);
  }

  [[nodiscard]] PlacementPolicy policy() const { return policy_; }

  /// Compute a placement for every stage of `task` given current ledger
  /// state.  Never fails: there is always at least the primary processor.
  /// (Whether the placement is *admissible* is the admission test's call.)
  /// Allocation-free for placements within events::Placement::kInline.
  [[nodiscard]] events::Placement place(
      const TaskSpec& task, const UtilizationLedger& ledger) const;

 private:
  /// Utilization stages [0, stage) of `placement` already put on `proc`.
  [[nodiscard]] static double pending(const TaskSpec& task,
                                      const events::Placement& placement,
                                      std::size_t stage, ProcessorId proc);

  PlacementPolicy policy_;
  std::function<std::size_t(std::size_t)> random_pick_;
};

/// Spread of synthetic utilization across `procs` (max - min); the heuristic
/// aims to keep this small.  Used by tests and the ablation bench.
[[nodiscard]] double utilization_spread(const UtilizationLedger& ledger,
                                        const std::vector<ProcessorId>& procs);

}  // namespace rtcm::sched
