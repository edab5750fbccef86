// Incremental AUB admission aggregates.
//
// A full-rescan admission test re-evaluates Equation (1) for *every*
// admitted footprint on *every* arrival, so per-arrival cost grows
// O(task set x footprint) and a cell stalls long before 10^5 resident
// tasks.  The condition only depends on per-processor synthetic-utilization
// totals, so almost all of that rescan is redundant: a candidate can only
// change the LHS of footprints that share a processor with it.
//
// This index maintains, on top of the ledger's totals:
//   - per-processor aUB terms in units, aub_term_units(total), recomputed
//     exactly once — in O(1) — whenever a processor's total changes;
//   - an inverted processor -> footprints index, so the footprints affected
//     by a candidate are found in O(candidate footprint), not O(task set);
//   - per-footprint visit lists (distinct processor, visit count), from
//     which a footprint's LHS is summed on demand: at most a handful of
//     count x term products per affected footprint, read against terms that
//     are always current.
//
// Terms are *lazy*: a ledger change costs O(1) per touched processor
// (refresh just stores the new term), and the O(fan-out) work of judging
// the footprints on that processor is deferred to the admission tests that
// actually need it — whose member loop walks each affected footprint's
// visit list anyway to resolve the candidate overlay, so summing the LHS
// there adds no extra memory traffic.  This is what makes admit/expire
// churn O(stages) per job instead of O(stages x fan-out).
//
// admission_test() then evaluates Equation (1) for the candidate plus only
// the affected footprints.  Skipping the rest is sound because the book of
// record preserves the invariant "every registered footprint satisfies
// Equation (1)": admissions re-check every footprint they affect, removals
// only lower totals (aub_term_units is monotone), and an untouched
// footprint's LHS is unchanged by a candidate that shares no processor
// with it.  Every sum is an integer, so the order of a sum never matters.
// The full-rescan reference lives in tests/reference/aub.h;
// tests/oracle_differential_test.cpp steps every library grid and holds
// admission_test() to it exactly (decision and candidate LHS).
//
// Storage is struct-of-arrays: footprints live in a generation-counted
// slab (parallel task / round / visit columns; FootprintId is the packed
// slab handle), processors in dense entries (id and term columns)
// addressed by an id -> slot table, and each footprint's visit list is a
// util::InlineList of 5 in its row.  Admit/expire churn at fixed capacity
// is allocation-free once the slab is warm for footprints of up to 5
// distinct processors (every shipped shape); a longer visit list allocates
// one block per registration and frees it on removal.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "sched/aub.h"
#include "sched/utilization_ledger.h"
#include "util/ids.h"
#include "util/inline_list.h"
#include "util/slab.h"

namespace rtcm::sched {

/// Opaque handle for one registered footprint.  Default-constructed handles
/// are inert.
class FootprintId {
 public:
  constexpr FootprintId() = default;
  [[nodiscard]] constexpr bool valid() const { return v_ != 0; }
  constexpr auto operator<=>(const FootprintId&) const = default;

 private:
  friend class AdmissionIndex;
  constexpr explicit FootprintId(std::uint64_t v) : v_(v) {}
  std::uint64_t v_ = 0;
};

class AdmissionIndex {
 public:
  /// Register an admitted footprint (the ledger contributions for it must
  /// already be in place and refresh()ed, so its processors' cached terms
  /// are current).  Repeated processors are allowed and weigh the per-visit
  /// terms accordingly: a processor visited k times counts k terms.
  [[nodiscard]] FootprintId add_footprint(
      TaskId task, std::span<const ProcessorId> processors,
      const UtilizationLedger& ledger);

  /// Unregister a footprint (idempotent for inert or stale handles).
  void remove_footprint(FootprintId id);

  /// Re-sync the cached aUB term of `proc` after its ledger total changed.
  /// O(1); a no-op for processors no footprint currently visits (their
  /// terms are re-synced when the next footprint joins them).
  void refresh(ProcessorId proc, const UtilizationLedger& ledger);

  /// Equation (1) for `candidate` placed per `stages`, re-checked only for
  /// the footprints whose processors intersect the candidate's.  Decision-
  /// equivalent to a full rescan of all registered footprints
  /// (blocking_task may name a different witness when several would fail).
  /// Allocation-free once warm: the overlay lives in a reused scratch
  /// buffer.
  [[nodiscard]] AdmissionDecision admission_test(
      const UtilizationLedger& ledger, TaskId candidate,
      std::span<const CandidateStage> stages) const;
  [[nodiscard]] AdmissionDecision admission_test(
      const UtilizationLedger& ledger, TaskId candidate,
      std::initializer_list<CandidateStage> stages) const {
    return admission_test(
        ledger, candidate,
        std::span<const CandidateStage>(stages.begin(), stages.size()));
  }

  /// LHS of a registered footprint at the current ledger totals, summed
  /// from its visit list and the cached per-processor terms, as the
  /// reported double.  The property tests compare this against a fresh
  /// recompute.
  [[nodiscard]] double cached_lhs(FootprintId id) const;

  /// Number of registered footprints.
  [[nodiscard]] std::size_t footprint_count() const { return slots_.live(); }

  /// Footprints registered on one processor (the inverted-index fan-out a
  /// candidate stage there would have to re-test).
  [[nodiscard]] std::size_t fanout(ProcessorId proc) const;

  /// Heap bytes held by the index's slab columns, spilled visit lists and
  /// proc entries (the bench's bytes-per-resident-task accounting).
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  /// One processor the candidate loads, with its tentative aUB term
  /// (computed once per admission test).
  struct OverlayEntry {
    ProcessorId proc;
    UtilizationLedger::Units amount = 0;  // the candidate's stages on proc
    std::uint32_t entry = 0;  // dense proc-entry index, or kNoEntry
    AubUnits term = 0;        // aub_term_units(total + amount)
  };

  struct Visit {
    std::uint32_t entry = 0;        // dense proc-entry index
    std::uint32_t count = 0;        // visits of this footprint to the proc
    std::uint32_t member_slot = 0;  // position in members_[entry]
  };
  using VisitList = util::InlineList<Visit, 5>;
  static constexpr std::uint32_t kNoEntry = util::IdSlotMap::kNoSlot;

  /// Dense proc entry of `proc`, created (term unset) on first sight.
  std::uint32_t intern(ProcessorId proc);

  // Footprint slab: parallel columns indexed by slot (FootprintId packs
  // slot + generation; released rows are reused via slots_).
  util::SlotAllocator slots_;
  std::vector<TaskId> task_;
  /// admission_test() round markers, so a footprint spanning several of
  /// the candidate's processors is tested once per arrival.
  mutable std::vector<std::uint64_t> round_;
  /// One Visit per distinct processor (empty once the slot is released).
  std::vector<VisitList> visits_;

  // Dense proc entries (persistent: a processor keeps its entry — and its
  // members vector's grown capacity — after its last member leaves, so
  // steady-state churn never reallocates).  term is recomputed from the
  // ledger whenever a footprint joins an empty entry.
  util::IdSlotMap proc_index_;
  std::vector<ProcessorId> proc_ids_;
  std::vector<AubUnits> term_;  // aub_term_units(total)
  std::vector<std::vector<std::uint32_t>> members_;  // footprint slots

  mutable std::uint64_t round_counter_ = 0;
  /// admission_test() scratch: the candidate's processors, deduplicated.
  mutable std::vector<OverlayEntry> overlay_;
};

}  // namespace rtcm::sched
