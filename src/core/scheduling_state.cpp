#include "core/scheduling_state.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rtcm::core {

namespace {

/// Swap-with-last removal of one slab row from a column.
template <typename Column>
void erase_row(Column& column, std::uint32_t row) {
  if (row + 1 != column.size()) column[row] = std::move(column.back());
  column.pop_back();
}

}  // namespace

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

SchedulingState::StageUnits SchedulingState::add_stages(
    const sched::TaskSpec& spec, std::span<const ProcessorId> placement) {
  assert(placement.size() == spec.stage_count());
  StageUnits units(placement.size());
  for (std::size_t j = 0; j < placement.size(); ++j) {
    units[j] = ledger_.add(placement[j], spec.subtask_utilization(j));
  }
  refresh_placement(placement);
  return units;
}

void SchedulingState::admit_job(const sched::TaskSpec& spec, JobId job,
                                std::span<const ProcessorId> placement,
                                Time absolute_deadline) {
  assert(!has_job(job) && "job admitted twice");
  job_index_.insert(job.value(), static_cast<std::uint32_t>(job_ids_.size()));
  job_ids_.push_back(job);
  job_task_.push_back(spec.id);
  job_deadline_.push_back(absolute_deadline);
  job_units_.push_back(add_stages(spec, placement));
  job_footprint_.push_back(index_.add_footprint(spec.id, placement, ledger_));
  job_placement_.emplace_back(placement);
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
  if (row + 1 != job_ids_.size()) {
    job_index_.update(job_ids_.back().value(), row);
  }
  erase_row(job_ids_, row);
  erase_row(job_task_, row);
  erase_row(job_deadline_, row);
  erase_row(job_footprint_, row);
  erase_row(job_placement_, row);
  erase_row(job_units_, row);
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
  StageUnits& units = job_units_[row];
  if (stage >= units.size() || units[stage] == 0) return false;
  const ProcessorId proc = job_placement_[row][stage];
  ledger_.remove(proc, std::exchange(units[stage], 0));
  // The job's footprint stays registered in full (Equation (1) re-checks
  // the whole placement until expiry); only the stage's processor total —
  // and so its cached term — changed.
  index_.refresh(proc, ledger_);
  return true;
}

void SchedulingState::add_background(ProcessorId proc, double utilization) {
  (void)ledger_.add(proc, utilization);
  index_.refresh(proc, ledger_);
}

void SchedulingState::reserve_task(const sched::TaskSpec& spec,
                                   std::span<const ProcessorId> placement) {
  assert(!is_reserved(spec.id) && "task reserved twice");
  res_index_.insert(spec.id.value(),
                    static_cast<std::uint32_t>(res_ids_.size()));
  res_ids_.push_back(spec.id);
  res_units_.push_back(add_stages(spec, placement));
  res_footprint_.push_back(index_.add_footprint(spec.id, placement, ledger_));
  res_placement_.emplace_back(placement);
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
  events::Placement placement = std::move(res_placement_[row]);
  refresh_placement(placement);
  res_index_.erase(spec.id.value());
  if (row + 1 != res_ids_.size()) {
    res_index_.update(res_ids_.back().value(), row);
  }
  erase_row(res_ids_, row);
  erase_row(res_footprint_, row);
  erase_row(res_placement_, row);
  erase_row(res_units_, row);
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
      job_placement_.capacity() * sizeof(events::Placement) +
      job_units_.capacity() * sizeof(StageUnits) +
      res_ids_.capacity() * sizeof(TaskId) +
      res_footprint_.capacity() * sizeof(sched::FootprintId) +
      res_placement_.capacity() * sizeof(events::Placement) +
      res_units_.capacity() * sizeof(StageUnits);
  for (std::uint32_t row = 0; row < job_ids_.size(); ++row) {
    bytes += job_placement_[row].heap_bytes() + job_units_[row].heap_bytes();
  }
  for (std::uint32_t row = 0; row < res_ids_.size(); ++row) {
    bytes += res_placement_[row].heap_bytes() + res_units_[row].heap_bytes();
  }
  return bytes;
}

}  // namespace rtcm::core
