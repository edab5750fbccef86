#include "sched/load_balancer.h"

#include <cassert>
#include <limits>

namespace rtcm::sched {

events::Placement LoadBalancer::place(const TaskSpec& task,
                                      const UtilizationLedger& ledger) const {
  events::Placement placement(task.subtasks.size());

  for (std::size_t j = 0; j < task.subtasks.size(); ++j) {
    const SubtaskSpec& st = task.subtasks[j];
    ProcessorId chosen = st.primary;

    switch (policy_) {
      case PlacementPolicy::kPrimaryOnly:
        break;
      case PlacementPolicy::kRandomReplica: {
        // Candidate i is the primary for i == 0, else replicas[i - 1].
        const std::size_t candidates = 1 + st.replicas.size();
        if (candidates > 1 && random_pick_) {
          const std::size_t pick = random_pick_(candidates);
          if (pick > 0) chosen = st.replicas[pick - 1];
        }
        break;
      }
      case PlacementPolicy::kLowestUtilization: {
        // Primary first, then replicas in order; strict < keeps the earliest
        // candidate (the primary) on ties, avoiding gratuitous
        // re-allocations.
        double best = std::numeric_limits<double>::infinity();
        const auto consider = [&](ProcessorId p) {
          const double u = ledger.total(p) + pending(task, placement, j, p);
          if (u < best) {
            best = u;
            chosen = p;
          }
        };
        consider(st.primary);
        for (const ProcessorId p : st.replicas) consider(p);
        break;
      }
    }
    placement[j] = chosen;
  }
  return placement;
}

double LoadBalancer::pending(const TaskSpec& task,
                             const events::Placement& placement,
                             std::size_t stage, ProcessorId proc) {
  // Summed in stage order from zero, the order the per-candidate running
  // totals were kept in, so the sums (and ties) are bit-identical.
  double sum = 0.0;
  for (std::size_t i = 0; i < stage; ++i) {
    if (placement[i] == proc) sum += task.subtask_utilization(i);
  }
  return sum;
}

double utilization_spread(const UtilizationLedger& ledger,
                          const std::vector<ProcessorId>& procs) {
  assert(!procs.empty());
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const ProcessorId p : procs) {
    const double u = ledger.total(p);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  return hi - lo;
}

}  // namespace rtcm::sched
