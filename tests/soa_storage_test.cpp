// Equivalence and invariant tests for the struct-of-arrays storage
// primitives behind the admission book of record (util/slab.h) and for the
// book itself run against its std::map-backed shadow.
//
// The slot map and slot allocator replace std::map nodes with dense
// columns; these tests pin the behavioural contract of each against a
// straightforward reference (std::unordered_map) under randomized churn,
// and the final test drives SchedulingState through the map-backed shadow
// of tests/shadow_book.h over a workload with heavy slot reuse,
// swap-with-last removals, rows past the inline list capacity and
// background load.  The binary carries the `admission` ctest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "shadow_book.h"
#include "test_helpers.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/slab.h"
#include "util/time.h"
#include "workload/generator.h"

namespace rtcm {
namespace {

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
  // processors.  The random shape's 1-5 stage chains all sit inline, so
  // explicit 6-, 7- and 9-stage tasks (repeated processors and replicas
  // included) put rows past the inline capacity into the churn, and
  // background load raises totals permanently.
  Rng rng(13);
  sched::TaskSet tasks =
      workload::generate_workload(workload::random_workload_shape(), rng);
  const auto next_id = static_cast<std::int32_t>(tasks.size()) + 100;
  const Duration deadline = Duration::seconds(1);
  ASSERT_TRUE(tasks
                  .add(rtcm::testing::make_periodic(
                      next_id, deadline,
                      {{0, 500}, {1, 500, {2}}, {2, 500}, {3, 500},
                       {4, 500, {0}}, {0, 500}}))
                  .is_ok());
  ASSERT_TRUE(tasks
                  .add(rtcm::testing::make_periodic(
                      next_id + 1, deadline,
                      {{1, 300}, {2, 300}, {3, 300, {4}}, {4, 300},
                       {0, 300}, {1, 300}, {2, 300, {3}}}))
                  .is_ok());
  ASSERT_TRUE(tasks
                  .add(rtcm::testing::make_periodic(
                      next_id + 2, deadline,
                      {{0, 200}, {1, 200}, {2, 200}, {3, 200}, {4, 200},
                       {0, 200, {1}}, {1, 200}, {2, 200}, {3, 200, {4}}}))
                  .is_ok());
  rtcm::testing::ShadowedBook book;
  const rtcm::testing::ChurnCoverage coverage =
      rtcm::testing::run_book_churn(book, tasks, 13, 1500);

  EXPECT_EQ(book.mismatches(), 0u);
  EXPECT_GT(book.checks(), 1500u);
  EXPECT_GT(coverage.spilled_admits, 0u);
  EXPECT_GT(coverage.backgrounds, 0u);
  EXPECT_GT(coverage.resets, 0u);
  EXPECT_GT(coverage.releases, 0u);
  // Drained: only the background load is left on the ledger.
  EXPECT_EQ(book.book().active_jobs(), 0u);
  EXPECT_EQ(book.book().reservation_count(), 0u);
  EXPECT_EQ(book.book().ledger().total_all(),
            sched::UtilizationLedger::utilization(coverage.background_units));
  EXPECT_GT(book.book().ledger().total_all(), 0.0);
}

}  // namespace
}  // namespace rtcm
