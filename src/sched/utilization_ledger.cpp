#include "sched/utilization_ledger.h"

#include <algorithm>

namespace rtcm::sched {

UtilizationLedger::Units UtilizationLedger::add(ProcessorId proc, double u) {
  assert(proc.valid());
  std::uint32_t slot = proc_index_.lookup(proc.value());
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(proc_ids_.size());
    proc_index_.insert(proc.value(), slot);
    proc_ids_.push_back(proc);
    totals_.push_back(0);
  }
  const Units added = units(u);
  totals_[slot] += added;
  return added;
}

void UtilizationLedger::remove(ProcessorId proc, Units units) {
  const std::uint32_t slot = proc_index_.lookup(proc.value());
  assert(slot != kNoSlot && totals_[slot] >= units &&
         "removing units the ledger never held");
  totals_[slot] -= units;
}

double UtilizationLedger::total_all() const {
  Units sum = 0;
  for (const Units total : totals_) sum += total;
  return utilization(sum);
}

std::vector<ProcessorId> UtilizationLedger::processors() const {
  std::vector<ProcessorId> out;
  for (std::size_t slot = 0; slot < totals_.size(); ++slot) {
    if (totals_[slot] > 0) out.push_back(proc_ids_[slot]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t UtilizationLedger::footprint_bytes() const {
  return proc_index_.footprint_bytes() +
         proc_ids_.capacity() * sizeof(ProcessorId) +
         totals_.capacity() * sizeof(Units);
}

}  // namespace rtcm::sched
