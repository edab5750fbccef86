#include "sched/edms.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace rtcm::sched {

std::vector<Priority> assign_edms_priorities(
    const std::vector<TaskSpec>& tasks) {
  std::vector<std::uint32_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&tasks](std::uint32_t a, std::uint32_t b) {
              if (tasks[a].deadline != tasks[b].deadline) {
                return tasks[a].deadline < tasks[b].deadline;
              }
              return tasks[a].id < tasks[b].id;
            });
  std::vector<Priority> out(tasks.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    out[order[rank]] = Priority(static_cast<std::int32_t>(rank));
  }
  return out;
}

}  // namespace rtcm::sched
