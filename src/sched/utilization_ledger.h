// Synthetic utilization ledger (paper §2, AUB analysis).
//
// The admission controller's per-processor synthetic utilization U_j(t):
// every admitted job (or per-task reservation) contributes C_i,j / D_i to
// each processor its subtasks are assigned to, from admission until its
// absolute deadline expires or the resetting rule (idle resetting) removes
// it earlier.
//
// Totals are exact: a uint64 count of units of 2^-40 of a processor, and
// every contribution enters through the one conversion units(u) = ⌈u·2^40⌉
// (rounding up keeps the admission test conservative).  Integer sums make
// a total a function of the live contributions alone, whatever order they
// came and went in.  The ledger keeps no per-contribution record: add()
// returns the units it added, and the owner (core::SchedulingState) hands
// exactly those back to remove().  total() is the exact double of the
// integer total; Equation (1) is evaluated on total_units() in these same
// units (sched/aub.h).  Both scale factors are powers of two, so a
// conversion is one multiply.
//
// Processors are interned into dense slots (an id -> slot remap plus a
// flat totals array, never recycled), so nothing here allocates once every
// processor has been seen.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "util/ids.h"
#include "util/slab.h"

namespace rtcm::sched {

class UtilizationLedger {
 public:
  /// One unit is 2^-40 of a processor's utilization.
  using Units = std::uint64_t;
  static constexpr std::uint32_t kNoSlot = util::IdSlotMap::kNoSlot;

  /// The one conversion into the ledger: ⌈u·2^40⌉, for 0 <= u < 2^23.
  [[nodiscard]] static Units units(double u) {
    assert(u >= 0.0 && u < 0x1p23);
    const double scaled = u * 0x1p40;
    const auto whole = static_cast<Units>(scaled);
    return static_cast<double>(whole) < scaled ? whole + 1 : whole;
  }

  /// The exact utilization of `units` (below 2^53 units).
  [[nodiscard]] static double utilization(Units units) {
    return static_cast<double>(units) * 0x1p-40;
  }

  /// Register `u` (>= 0) of synthetic utilization on `proc`; returns the
  /// units added, which the owner later hands back to remove().
  Units add(ProcessorId proc, double u);
  void remove(ProcessorId proc, Units units);

  /// Current synthetic utilization of one processor, in units.
  [[nodiscard]] Units total_units(ProcessorId proc) const {
    const std::uint32_t slot = proc_index_.lookup(proc.value());
    return slot == kNoSlot ? 0 : totals_[slot];
  }

  /// Current synthetic utilization of one processor (exact).
  [[nodiscard]] double total(ProcessorId proc) const {
    return utilization(total_units(proc));
  }

  /// Sum across all processors.
  [[nodiscard]] double total_all() const;

  /// Processors with a nonzero recorded total (sorted: callers render
  /// these into traces and reports, so the order is part of the
  /// determinism contract — pinned by LedgerTest.ProcessorsOrderIsSorted).
  [[nodiscard]] std::vector<ProcessorId> processors() const;

  /// Heap bytes held by the ledger's arrays (the bytes-per-resident-task
  /// accounting in bench/admission_scale.cpp).
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  // Processor remap + flat per-processor columns (parallel, same length).
  util::IdSlotMap proc_index_;
  std::vector<ProcessorId> proc_ids_;
  std::vector<Units> totals_;
};

}  // namespace rtcm::sched
