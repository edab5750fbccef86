#include "sched/ds_admission.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace rtcm::sched {

std::span<const Duration> DsAdmission::stage_bounds(
    const TaskSpec& task, const events::Placement& placement) const {
  assert(placement.size() == task.subtasks.size());
  const double rate = config_.utilization();  // B / P
  assert(rate > 0.0);
  bounds_.clear();
  Duration total = Duration::zero();
  for (std::size_t j = 0; j < placement.size(); ++j) {
    const Duration work =
        backlog(placement[j]) + task.subtasks[j].execution;
    const auto service = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(work.usec()) / rate));
    total += config_.max_latency() + Duration(service) + config_.hop_overhead;
    bounds_.push_back(total);
  }
  return bounds_;
}

void DsAdmission::admit(JobId job, const TaskSpec& task,
                        const events::Placement& placement) {
  assert(placement.size() == task.subtasks.size());
  job_index_.insert(job.value(), static_cast<std::uint32_t>(job_ids_.size()));
  job_ids_.push_back(job);
  util::InlineList<StageRecord, 5>& stages =
      stages_.emplace_back(placement.size());
  for (std::size_t j = 0; j < placement.size(); ++j) {
    std::uint32_t slot = proc_index_.lookup(placement[j].value());
    if (slot == util::IdSlotMap::kNoSlot) {
      slot = static_cast<std::uint32_t>(backlog_.size());
      proc_index_.insert(placement[j].value(), slot);
      backlog_.push_back(0);
    }
    const std::int64_t usec = task.subtasks[j].execution.usec();
    backlog_[slot] += usec;
    stages[j] = {slot, usec};
  }
}

bool DsAdmission::release_stage(JobId job, std::size_t stage) {
  const std::uint32_t row = job_index_.lookup(job.value());
  if (row == util::IdSlotMap::kNoSlot || stage >= stages_[row].size()) {
    return false;
  }
  StageRecord& record = stages_[row][stage];
  if (record.usec == 0) return false;
  backlog_[record.proc_slot] -= record.usec;
  record.usec = 0;
  return true;
}

void DsAdmission::expire(JobId job) {
  const std::uint32_t row = job_index_.lookup(job.value());
  if (row == util::IdSlotMap::kNoSlot) return;
  for (const StageRecord& record : stages_[row]) {
    backlog_[record.proc_slot] -= record.usec;
  }
  job_index_.erase(job.value());
  if (row + 1 != job_ids_.size()) {
    job_ids_[row] = job_ids_.back();
    stages_[row] = std::move(stages_.back());
    job_index_.update(job_ids_[row].value(), row);
  }
  job_ids_.pop_back();
  stages_.pop_back();
}

}  // namespace rtcm::sched
