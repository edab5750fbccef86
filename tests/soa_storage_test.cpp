// Equivalence and invariant tests for the struct-of-arrays storage
// primitives behind the admission book of record (util/slab.h,
// util/arena.h, util/small_vec.h) and for the book itself run against its
// std::map-backed shadow.
//
// The slab/arena/small-vec trio replaces std::map nodes with dense columns;
// these tests pin the behavioural contract of each piece against a
// straightforward reference (std::unordered_map, std::vector) under
// randomized churn, and the final test drives SchedulingState through the
// map-backed shadow of tests/shadow_book.h over a workload with heavy slot
// reuse, swap-with-last removals, arena-spilled rows and background load.  CI gates on `ctest -R SoaEquivalence` in both the plain and
// the ASan+UBSan jobs (scripts/ci_layer_gates.sh).
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "shadow_book.h"
#include "util/arena.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/slab.h"
#include "util/small_vec.h"
#include "util/time.h"
#include "workload/generator.h"

namespace rtcm {
namespace {

TEST(SoaEquivalence, ArenaAlignmentAndDedicatedBlocks) {
  util::MonotonicArena arena(1024);
  // Mixed-alignment bumps all land correctly aligned (the arena's
  // guarantee tops out at the fundamental alignment of its new[]'d
  // blocks).
  for (std::size_t align : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                            alignof(std::max_align_t)}) {
    void* p = arena.allocate(3, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
  }
  // A request larger than the block size gets its own block instead of
  // failing or truncating.
  void* big = arena.allocate(4096, 8);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.reserved_bytes(), 4096u + 1024u);
  const std::size_t blocks = arena.block_count();
  // release() drops everything wholesale.
  arena.release();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.reserved_bytes(), 0u);
  EXPECT_LT(arena.block_count(), blocks);
}

TEST(SoaEquivalence, ArenaDoesNotReuseReleasedOffsetsWithinBlock) {
  util::MonotonicArena arena(256);
  auto* a = arena.allocate_array<std::uint64_t>(4);
  auto* b = arena.allocate_array<std::uint64_t>(4);
  // Monotonic: the second allocation never aliases the first.
  EXPECT_GE(b, a + 4);
  a[0] = 1;
  b[0] = 2;
  EXPECT_EQ(a[0], 1u);
}

TEST(SoaEquivalence, SmallVecMatchesVectorThroughSpill) {
  util::MonotonicArena arena;
  util::SmallVec<std::uint32_t, 4> sv;
  std::vector<std::uint32_t> ref;
  // Grow well past the inline capacity and compare element-for-element at
  // every step, including across the inline->spill boundary.
  for (std::uint32_t i = 0; i < 64; ++i) {
    sv.push_back(i * 3, arena);
    ref.push_back(i * 3);
    ASSERT_EQ(sv.size(), ref.size());
    for (std::uint32_t j = 0; j < ref.size(); ++j) ASSERT_EQ(sv[j], ref[j]);
  }
  EXPECT_GT(arena.allocated_bytes(), 0u);  // it did spill

  // clear() keeps the spilled capacity: refilling allocates nothing more.
  const std::size_t spilled = arena.allocated_bytes();
  sv.clear();
  for (std::uint32_t i = 0; i < 64; ++i) sv.push_back(i, arena);
  EXPECT_EQ(arena.allocated_bytes(), spilled);

  // Moves transfer the spill buffer (rows relocate on swap-with-last).
  util::SmallVec<std::uint32_t, 4> moved(std::move(sv));
  ASSERT_EQ(moved.size(), 64u);
  EXPECT_EQ(moved[63], 63u);
  EXPECT_TRUE(sv.empty());
}

TEST(SoaEquivalence, SlotMapMatchesUnorderedMapUnderChurn) {
  util::IdSlotMap map;
  std::unordered_map<std::int32_t, std::uint32_t> ref;
  Rng rng(11);
  // Insert/erase/update/lookup churn over a key range chosen to force
  // probe-chain collisions and plenty of backshift deletions.
  for (int step = 0; step < 20000; ++step) {
    const auto key = static_cast<std::int32_t>(rng.index(512));
    switch (rng.index(3)) {
      case 0:
        if (!ref.contains(key)) {
          const auto slot = static_cast<std::uint32_t>(step);
          map.insert(key, slot);
          ref.emplace(key, slot);
        } else {
          const auto slot = static_cast<std::uint32_t>(step);
          map.update(key, slot);
          ref[key] = slot;
        }
        break;
      case 1:
        ASSERT_EQ(map.erase(key), ref.erase(key) > 0);
        break;
      default:
        break;
    }
    const std::uint32_t got = map.lookup(key);
    const auto it = ref.find(key);
    if (it == ref.end()) {
      ASSERT_EQ(got, util::IdSlotMap::kNoSlot);
    } else {
      ASSERT_EQ(got, it->second);
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  // Full sweep: every surviving key resolves, every other key misses.
  for (std::int32_t key = 0; key < 512; ++key) {
    const auto it = ref.find(key);
    ASSERT_EQ(map.lookup(key),
              it == ref.end() ? util::IdSlotMap::kNoSlot : it->second);
  }
}

TEST(SoaEquivalence, SlabHandlesGoStaleOnRelease) {
  util::SlotAllocator slots;
  const auto [a, fresh_a] = slots.acquire();
  EXPECT_TRUE(fresh_a);
  const std::uint64_t handle_a = slots.handle(a);
  EXPECT_EQ(slots.slot_of(handle_a), a);

  // Releasing invalidates the outstanding handle even after the slot is
  // reacquired under a newer generation.
  slots.release(a);
  EXPECT_EQ(slots.slot_of(handle_a), util::SlotAllocator::kNoSlot);
  const auto [b, fresh_b] = slots.acquire();
  EXPECT_EQ(b, a);  // free list reuses the row
  EXPECT_FALSE(fresh_b);
  EXPECT_EQ(slots.slot_of(handle_a), util::SlotAllocator::kNoSlot);
  EXPECT_EQ(slots.slot_of(slots.handle(b)), b);

  // Inert handles never resolve.
  EXPECT_EQ(slots.slot_of(0), util::SlotAllocator::kNoSlot);
  EXPECT_EQ(slots.live(), 1u);
  EXPECT_EQ(slots.capacity(), 1u);
}

TEST(SoaEquivalence, BookMatchesShadowOracleUnderChurn) {
  // The map-backed shadow mirrors every mutation with the pre-slab
  // arithmetic and compares totals bitwise and rows field for field
  // (tests/shadow_book.h).  The workload leans on slot reuse: expiries out
  // of the middle force swap-with-last moves, resets punch holes in
  // contribution lists, and reservations interleave with jobs on shared
  // processors.  The random shape's 1-5 stage chains put 5-stage rows
  // into the arena, and background load raises totals permanently.
  Rng rng(13);
  const sched::TaskSet tasks =
      workload::generate_workload(workload::random_workload_shape(), rng);
  rtcm::testing::ShadowedBook book;
  const rtcm::testing::ChurnCoverage coverage =
      rtcm::testing::run_book_churn(book, tasks, 13, 1500);

  EXPECT_EQ(book.mismatches(), 0u);
  EXPECT_GT(book.checks(), 1500u);
  EXPECT_GT(coverage.spilled_admits, 0u);
  EXPECT_GT(coverage.backgrounds, 0u);
  EXPECT_GT(coverage.resets, 0u);
  EXPECT_GT(coverage.releases, 0u);
  EXPECT_GT(book.book().arena().allocated_bytes(), 0u);
  // Drained: only the background load is left on the ledger.
  EXPECT_EQ(book.book().active_jobs(), 0u);
  EXPECT_EQ(book.book().reservation_count(), 0u);
  EXPECT_EQ(book.book().ledger().total_all(),
            sched::UtilizationLedger::utilization(coverage.background_units));
  EXPECT_GT(book.book().ledger().total_all(), 0.0);
}

}  // namespace
}  // namespace rtcm
