#include "sched/load_balancer.h"

#include <array>
#include <cassert>
#include <limits>

namespace rtcm::sched {

namespace {

constexpr std::array<PlacementPolicy, 3> kPolicies = {
    PlacementPolicy::kLowestUtilization, PlacementPolicy::kPrimaryOnly,
    PlacementPolicy::kRandomReplica};

}  // namespace

const char* to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kLowestUtilization:
      return "lowest-util";
    case PlacementPolicy::kPrimaryOnly:
      return "primary";
    case PlacementPolicy::kRandomReplica:
      return "random";
  }
  return "?";
}

Result<PlacementPolicy> parse_placement_policy(std::string_view name) {
  for (const PlacementPolicy policy : kPolicies) {
    if (name == to_string(policy)) return policy;
  }
  return Result<PlacementPolicy>::error(
      "must be 'lowest-util', 'primary' or 'random', got '" +
      std::string(name) + "'");
}

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
        // re-allocations.  Loads are compared in exact ledger units, so a
        // tie is a real tie, not float noise.
        auto best = std::numeric_limits<UtilizationLedger::Units>::max();
        const auto consider = [&](ProcessorId p) {
          const auto u = ledger.total_units(p) + pending(task, placement, j, p);
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

UtilizationLedger::Units LoadBalancer::pending(
    const TaskSpec& task, const events::Placement& placement,
    std::size_t stage, ProcessorId proc) {
  UtilizationLedger::Units sum = 0;
  for (std::size_t i = 0; i < stage; ++i) {
    if (placement[i] == proc) {
      sum += UtilizationLedger::units(task.subtask_utilization(i));
    }
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
