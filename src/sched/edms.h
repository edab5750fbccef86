// End-to-end Deadline Monotonic Scheduling (EDMS) priority assignment.
//
// Under EDMS every subtask of a task runs at the same priority, and a task
// with a shorter end-to-end deadline gets a more urgent priority (paper §2).
// The configuration engine runs this once over the workload specification
// and writes the resulting priority levels into the deployment plan, exactly
// as the paper's front-end writes the "priority" attribute of the subtask
// components.
#pragma once

#include <vector>

#include "sched/task.h"
#include "util/priority.h"

namespace rtcm::sched {

/// Priority per task, parallel to `tasks`: rank of the end-to-end deadline
/// (0 = shortest).  Deadline ties are broken by ascending task id so the
/// assignment is total and deterministic.
[[nodiscard]] std::vector<Priority> assign_edms_priorities(
    const std::vector<TaskSpec>& tasks);

/// Convenience overload, parallel to set.tasks().
[[nodiscard]] inline std::vector<Priority> assign_edms_priorities(
    const TaskSet& set) {
  return assign_edms_priorities(set.tasks());
}

}  // namespace rtcm::sched
