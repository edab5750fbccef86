#include "core/scheduling_state.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rtcm::core {

SchedulingState::SchedulingState(util::MonotonicArena* arena)
    : own_arena_(arena == nullptr ? new util::MonotonicArena() : nullptr),
      arena_(arena == nullptr ? own_arena_.get() : arena),
      index_(arena_) {}

std::vector<sched::TaskFootprint> SchedulingState::current_footprints() const {
  std::vector<sched::TaskFootprint> out;
  out.reserve(job_ids_.size() + res_ids_.size());
  for (std::uint32_t row = 0; row < job_ids_.size(); ++row) {
    out.push_back({job_task_[row],
                   {job_placement_[row].begin(), job_placement_[row].end()}});
  }
  for (std::uint32_t row = 0; row < res_ids_.size(); ++row) {
    out.push_back({res_ids_[row],
                   {res_placement_[row].begin(), res_placement_[row].end()}});
  }
  return out;
}

void SchedulingState::refresh_placement(
    std::span<const ProcessorId> placement) {
  // Placements are short chains; a linear first-occurrence scan keeps each
  // distinct processor refreshed exactly once without allocating.
  for (std::size_t j = 0; j < placement.size(); ++j) {
    bool seen = false;
    for (std::size_t i = 0; i < j; ++i) {
      if (placement[i] == placement[j]) {
        seen = true;
        break;
      }
    }
    if (!seen) index_.refresh(placement[j], ledger_);
  }
}

void SchedulingState::admit_job(const sched::TaskSpec& spec, JobId job,
                                std::span<const ProcessorId> placement,
                                Time absolute_deadline) {
  assert(placement.size() == spec.stage_count());
  assert(!has_job(job) && "job admitted twice");
  const auto row = static_cast<std::uint32_t>(job_ids_.size());
  job_ids_.push_back(job);
  job_task_.push_back(spec.id);
  job_deadline_.push_back(absolute_deadline);
  job_footprint_.emplace_back();
  if (row == job_placement_.size()) {
    job_placement_.emplace_back();
    job_units_.emplace_back();
  }
  job_placement_[row].assign(placement, *arena_);
  job_units_[row].clear();
  for (std::size_t j = 0; j < placement.size(); ++j) {
    job_units_[row].push_back(
        ledger_.add(placement[j], spec.subtask_utilization(j)), *arena_);
  }
  refresh_placement(placement);
  job_footprint_[row] = index_.add_footprint(spec.id, placement, ledger_);
  job_index_.insert(job.value(), row);
}

std::optional<SchedulingState::JobView> SchedulingState::job(
    JobId job) const {
  const std::uint32_t row = job_index_.lookup(job.value());
  if (row == util::IdSlotMap::kNoSlot) return std::nullopt;
  return job_view(row);
}

SchedulingState::JobView SchedulingState::job_view(std::uint32_t row) const {
  return {job_task_[row],          job_ids_[row],
          job_deadline_[row],      job_footprint_[row],
          job_placement_[row].span(), job_units_[row].span()};
}

SchedulingState::ReservationView SchedulingState::reservation_view(
    std::uint32_t row) const {
  return {res_ids_[row], res_footprint_[row], res_placement_[row].span(),
          res_units_[row].span()};
}

void SchedulingState::expire_job(JobId job) {
  const std::uint32_t row = job_index_.lookup(job.value());
  if (row == util::IdSlotMap::kNoSlot) return;
  index_.remove_footprint(job_footprint_[row]);
  for (std::size_t j = 0; j < job_units_[row].size(); ++j) {
    ledger_.remove(job_placement_[row][j], job_units_[row][j]);  // 0 if reset
  }
  refresh_placement(job_placement_[row].span());
  job_index_.erase(job.value());
  const auto last = static_cast<std::uint32_t>(job_ids_.size() - 1);
  if (row != last) {
    job_ids_[row] = job_ids_[last];
    job_task_[row] = job_task_[last];
    job_deadline_[row] = job_deadline_[last];
    job_footprint_[row] = job_footprint_[last];
    std::swap(job_placement_[row], job_placement_[last]);
    std::swap(job_units_[row], job_units_[last]);
    job_index_.update(job_ids_[row].value(), row);
  }
  job_ids_.pop_back();
  job_task_.pop_back();
  job_deadline_.pop_back();
  job_footprint_.pop_back();
}

Time SchedulingState::latest_deadline_touching(
    const std::set<ProcessorId>& nodes) const {
  Time latest = Time::epoch();
  for (std::uint32_t row = 0; row < job_ids_.size(); ++row) {
    for (const ProcessorId p : job_placement_[row]) {
      if (nodes.count(p) > 0) {
        latest = std::max(latest, job_deadline_[row]);
        break;
      }
    }
  }
  return latest;
}

bool SchedulingState::reset_subjob(JobId job, std::size_t stage) {
  const std::uint32_t row = job_index_.lookup(job.value());
  if (row == util::IdSlotMap::kNoSlot) return false;
  util::SmallVec<sched::UtilizationLedger::Units, 4>& units = job_units_[row];
  if (stage >= units.size() || units[stage] == 0) return false;
  const ProcessorId proc = job_placement_[row][stage];
  ledger_.remove(proc, std::exchange(units[stage], 0));
  // The job's footprint stays registered in full (matching the reference
  // test, which re-checks the whole placement until expiry); only the
  // stage's processor total — and so its cached term — changed.
  index_.refresh(proc, ledger_);
  return true;
}

void SchedulingState::add_background(ProcessorId proc, double utilization) {
  (void)ledger_.add(proc, utilization);
  index_.refresh(proc, ledger_);
}

void SchedulingState::reserve_task(const sched::TaskSpec& spec,
                                   std::span<const ProcessorId> placement) {
  assert(placement.size() == spec.stage_count());
  assert(!is_reserved(spec.id) && "task reserved twice");
  const auto row = static_cast<std::uint32_t>(res_ids_.size());
  res_ids_.push_back(spec.id);
  res_footprint_.emplace_back();
  if (row == res_placement_.size()) {
    res_placement_.emplace_back();
    res_units_.emplace_back();
  }
  res_placement_[row].assign(placement, *arena_);
  res_units_[row].clear();
  for (std::size_t j = 0; j < placement.size(); ++j) {
    res_units_[row].push_back(
        ledger_.add(placement[j], spec.subtask_utilization(j)), *arena_);
  }
  refresh_placement(placement);
  res_footprint_[row] = index_.add_footprint(spec.id, placement, ledger_);
  res_index_.insert(spec.id.value(), row);
}

std::optional<SchedulingState::ReservationView> SchedulingState::reservation(
    TaskId task) const {
  const std::uint32_t row = res_index_.lookup(task.value());
  if (row == util::IdSlotMap::kNoSlot) return std::nullopt;
  return reservation_view(row);
}

events::Placement SchedulingState::release_reservation(
    const sched::TaskSpec& spec) {
  const std::uint32_t row = res_index_.lookup(spec.id.value());
  assert(row != util::IdSlotMap::kNoSlot &&
         "releasing a reservation that is not held");
  index_.remove_footprint(res_footprint_[row]);
  for (std::size_t j = 0; j < res_units_[row].size(); ++j) {
    ledger_.remove(res_placement_[row][j], res_units_[row][j]);
  }
  events::Placement placement(res_placement_[row].span());
  refresh_placement(placement);
  res_index_.erase(spec.id.value());
  const auto last = static_cast<std::uint32_t>(res_ids_.size() - 1);
  if (row != last) {
    res_ids_[row] = res_ids_[last];
    res_footprint_[row] = res_footprint_[last];
    std::swap(res_placement_[row], res_placement_[last]);
    std::swap(res_units_[row], res_units_[last]);
    res_index_.update(res_ids_[row].value(), row);
  }
  res_ids_.pop_back();
  res_footprint_.pop_back();
  return placement;
}

std::size_t SchedulingState::footprint_bytes() const {
  std::size_t bytes =
      ledger_.footprint_bytes() + index_.footprint_bytes() +
      job_index_.footprint_bytes() + res_index_.footprint_bytes() +
      job_ids_.capacity() * sizeof(JobId) +
      job_task_.capacity() * sizeof(TaskId) +
      job_deadline_.capacity() * sizeof(Time) +
      job_footprint_.capacity() * sizeof(sched::FootprintId) +
      job_placement_.capacity() * sizeof(util::SmallVec<ProcessorId, 4>) +
      job_units_.capacity() *
          sizeof(util::SmallVec<sched::UtilizationLedger::Units, 4>) +
      res_ids_.capacity() * sizeof(TaskId) +
      res_footprint_.capacity() * sizeof(sched::FootprintId) +
      res_placement_.capacity() * sizeof(util::SmallVec<ProcessorId, 4>) +
      res_units_.capacity() *
          sizeof(util::SmallVec<sched::UtilizationLedger::Units, 4>);
  return bytes;
}

}  // namespace rtcm::core
