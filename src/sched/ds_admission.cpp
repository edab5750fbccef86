#include "sched/ds_admission.h"

#include <cassert>
#include <cmath>

namespace rtcm::sched {

std::vector<Duration> DsAdmission::stage_bounds(
    const TaskSpec& task, const events::Placement& placement) const {
  assert(placement.size() == task.subtasks.size());
  const double rate = config_.utilization();  // B / P
  assert(rate > 0.0);
  std::vector<Duration> bounds;
  bounds.reserve(placement.size());
  Duration total = Duration::zero();
  for (std::size_t j = 0; j < placement.size(); ++j) {
    const Duration work =
        backlog(placement[j]) + task.subtasks[j].execution;
    const auto service = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(work.usec()) / rate));
    total += config_.max_latency() + Duration(service) + config_.hop_overhead;
    bounds.push_back(total);
  }
  return bounds;
}

Duration DsAdmission::delay_bound(
    const TaskSpec& task, const events::Placement& placement) const {
  return stage_bounds(task, placement).back() + config_.hop_overhead * 2;
}

bool DsAdmission::admissible(
    const TaskSpec& task, const events::Placement& placement) const {
  return delay_bound(task, placement) <= task.deadline;
}

std::vector<ContributionId> DsAdmission::add_backlog(
    const TaskSpec& task, const events::Placement& placement) {
  assert(placement.size() == task.subtasks.size());
  std::vector<ContributionId> out;
  out.reserve(placement.size());
  for (std::size_t j = 0; j < placement.size(); ++j) {
    out.push_back(backlog_.add(
        placement[j],
        static_cast<double>(task.subtasks[j].execution.usec())));
  }
  return out;
}

}  // namespace rtcm::sched
