#include "sched/admission_index.h"

#include <algorithm>
#include <cassert>

namespace rtcm::sched {

std::uint32_t AdmissionIndex::intern(ProcessorId proc) {
  const std::uint32_t found = proc_index_.lookup(proc.value());
  if (found != kNoEntry) return found;
  const auto entry = static_cast<std::uint32_t>(proc_ids_.size());
  proc_index_.insert(proc.value(), entry);
  proc_ids_.push_back(proc);
  term_.push_back(0);
  members_.emplace_back();
  return entry;
}

FootprintId AdmissionIndex::add_footprint(
    TaskId task, std::span<const ProcessorId> processors,
    const UtilizationLedger& ledger) {
  // Count the distinct processors, then build the visit list at that size.
  std::size_t distinct = 0;
  for (auto it = processors.begin(); it != processors.end(); ++it) {
    if (std::find(processors.begin(), it, *it) == it) ++distinct;
  }
  VisitList visits(distinct);
  std::size_t filled = 0;
  for (const ProcessorId proc : processors) {
    assert(proc.valid());
    const std::uint32_t entry = intern(proc);
    Visit* const end = visits.begin() + filled;
    Visit* const v = std::find_if(visits.begin(), end, [entry](const Visit& w) {
      return w.entry == entry;
    });
    if (v == end) {
      *v = {entry, 0, 0};
      ++filled;
    }
    ++v->count;
  }
  assert(filled == distinct);

  const auto [slot, fresh] = slots_.acquire();
  if (fresh) {
    task_.push_back(task);
    round_.push_back(0);
    visits_.push_back(std::move(visits));
  } else {
    task_[slot] = task;
    round_[slot] = 0;
    visits_[slot] = std::move(visits);
  }
  for (Visit& v : visits_[slot]) {
    std::vector<std::uint32_t>& members = members_[v.entry];
    if (members.empty()) {
      // First member (again): sync the entry's term from the ledger.  A
      // memberless entry skips refresh(), so its term may be stale.
      term_[v.entry] = aub_term_units(ledger.total_units(proc_ids_[v.entry]));
    }
    v.member_slot = static_cast<std::uint32_t>(members.size());
    members.push_back(slot);
  }
  return FootprintId(slots_.handle(slot));
}

void AdmissionIndex::remove_footprint(FootprintId id) {
  const std::uint32_t slot = slots_.slot_of(id.v_);
  if (slot == util::SlotAllocator::kNoSlot) return;
  for (const Visit& v : visits_[slot]) {
    std::vector<std::uint32_t>& members = members_[v.entry];
    assert(v.member_slot < members.size() && members[v.member_slot] == slot);
    const std::uint32_t moved = members.back();
    members[v.member_slot] = moved;
    members.pop_back();
    if (moved != slot) {
      // Fix the swapped-in footprint's back-pointer for this processor.
      for (Visit& ov : visits_[moved]) {
        if (ov.entry == v.entry) {
          ov.member_slot = v.member_slot;
          break;
        }
      }
    }
    // The proc entry stays (members vector capacity and all); its term is
    // re-synced from the ledger when the next footprint joins it.
  }
  visits_[slot] = VisitList();  // frees a spilled list's block
  slots_.release(slot);
}

void AdmissionIndex::refresh(ProcessorId proc,
                             const UtilizationLedger& ledger) {
  const std::uint32_t entry = proc_index_.lookup(proc.value());
  if (entry == kNoEntry) return;
  if (members_[entry].empty()) return;  // re-synced on the next join
  term_[entry] = aub_term_units(ledger.total_units(proc));
}

double AdmissionIndex::cached_lhs(FootprintId id) const {
  const std::uint32_t slot = slots_.slot_of(id.v_);
  assert(slot != util::SlotAllocator::kNoSlot);
  if (slot == util::SlotAllocator::kNoSlot) return 0.0;
  AubUnits lhs = 0;
  for (const Visit& v : visits_[slot]) {
    lhs += v.count * term_[v.entry];
  }
  return aub_value(lhs);
}

std::size_t AdmissionIndex::fanout(ProcessorId proc) const {
  const std::uint32_t entry = proc_index_.lookup(proc.value());
  return entry == kNoEntry ? 0 : members_[entry].size();
}

std::size_t AdmissionIndex::footprint_bytes() const {
  std::size_t bytes =
      slots_.footprint_bytes() + task_.capacity() * sizeof(TaskId) +
      round_.capacity() * sizeof(std::uint64_t) +
      visits_.capacity() * sizeof(VisitList) +
      proc_index_.footprint_bytes() +
      proc_ids_.capacity() * sizeof(ProcessorId) +
      term_.capacity() * sizeof(AubUnits) +
      members_.capacity() * sizeof(std::vector<std::uint32_t>);
  for (const VisitList& v : visits_) bytes += v.heap_bytes();
  for (const std::vector<std::uint32_t>& m : members_) {
    bytes += m.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

AdmissionDecision AdmissionIndex::admission_test(
    const UtilizationLedger& ledger, TaskId candidate,
    std::span<const CandidateStage> stages) const {
  AdmissionDecision decision;

  // The candidate's tentative additions in ledger units, deduplicated by
  // processor.  Stage counts are single digits, so linear scans beat hashing.
  overlay_.clear();
  for (const CandidateStage& s : stages) {
    assert(s.processor.valid());
    assert(s.utilization >= 0.0);
    const UtilizationLedger::Units units =
        UtilizationLedger::units(s.utilization);
    const auto it = std::find_if(
        overlay_.begin(), overlay_.end(),
        [&s](const OverlayEntry& o) { return o.proc == s.processor; });
    if (it != overlay_.end()) {
      it->amount += units;
    } else {
      overlay_.push_back({s.processor, units, 0, 0});
    }
  }
  for (OverlayEntry& o : overlay_) {
    o.entry = proc_index_.lookup(o.proc.value());
    o.term = aub_term_units(ledger.total_units(o.proc) + o.amount);
  }
  const auto overlaid = [this](ProcessorId proc) -> const OverlayEntry& {
    return *std::find_if(
        overlay_.begin(), overlay_.end(),
        [proc](const OverlayEntry& o) { return o.proc == proc; });
  };

  // The candidate itself: one term per stage.
  AubUnits candidate_lhs = 0;
  for (const CandidateStage& s : stages) {
    candidate_lhs += overlaid(s.processor).term;
  }
  decision.candidate_lhs = aub_value(candidate_lhs);
  if (candidate_lhs > kAubBound) {
    decision.admitted = false;
    decision.blocking_task = candidate;
    return decision;
  }

  // Only footprints sharing a processor with the candidate can change LHS;
  // everything else passed when it was last affected and is unchanged by
  // this overlay.  Each affected footprint's LHS is summed from its visit
  // list — overlaid processors at their tentative terms, the rest at their
  // (always current) cached terms.  A kNoEntry overlay
  // entry (a processor the index has never seen) matches no visit.
  ++round_counter_;
  for (const OverlayEntry& o : overlay_) {
    if (o.entry == kNoEntry) continue;
    for (const std::uint32_t slot : members_[o.entry]) {
      if (round_[slot] == round_counter_) continue;
      round_[slot] = round_counter_;
      AubUnits lhs = 0;
      for (const Visit& v : visits_[slot]) {
        const auto a = std::find_if(
            overlay_.begin(), overlay_.end(),
            [&v](const OverlayEntry& e) { return e.entry == v.entry; });
        lhs += v.count * (a != overlay_.end() ? a->term : term_[v.entry]);
      }
      if (lhs > kAubBound) {
        decision.admitted = false;
        decision.failed_on_existing = true;
        decision.blocking_task = task_[slot];
        return decision;
      }
    }
  }

  decision.admitted = true;
  return decision;
}

}  // namespace rtcm::sched
