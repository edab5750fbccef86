#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "sched/edms.h"
#include "sched/load_balancer.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace rtcm::sched {
namespace {

using rtcm::testing::make_aperiodic;
using rtcm::testing::make_periodic;

// --- EDMS --------------------------------------------------------------------

TEST(EdmsTest, ShorterDeadlineGetsMoreUrgentPriority) {
  std::vector<TaskSpec> tasks;
  tasks.push_back(make_periodic(0, Duration::seconds(10), {{0, 1000}}));
  tasks.push_back(make_periodic(1, Duration::milliseconds(250), {{0, 1000}}));
  tasks.push_back(make_periodic(2, Duration::seconds(1), {{0, 1000}}));
  // Parallel to `tasks`: priorities[i] belongs to tasks[i].
  const std::vector<Priority> priorities = assign_edms_priorities(tasks);
  ASSERT_EQ(priorities.size(), tasks.size());
  EXPECT_EQ(priorities[1], Priority(0));
  EXPECT_EQ(priorities[2], Priority(1));
  EXPECT_EQ(priorities[0], Priority(2));
  EXPECT_TRUE(priorities[1].preempts(priorities[0]));
}

TEST(EdmsTest, TiesBrokenByTaskId) {
  std::vector<TaskSpec> tasks;
  tasks.push_back(make_periodic(5, Duration::seconds(1), {{0, 1000}}));
  tasks.push_back(make_periodic(2, Duration::seconds(1), {{0, 1000}}));
  const std::vector<Priority> priorities = assign_edms_priorities(tasks);
  EXPECT_EQ(priorities[1], Priority(0));  // task 2
  EXPECT_EQ(priorities[0], Priority(1));  // task 5
}

TEST(EdmsTest, AperiodicAndPeriodicShareOnePolicy) {
  // AUB/EDMS does not distinguish task kinds (paper §2).
  std::vector<TaskSpec> tasks;
  tasks.push_back(make_periodic(0, Duration::seconds(2), {{0, 1000}}));
  tasks.push_back(make_aperiodic(1, Duration::seconds(1), {{0, 1000}}));
  const std::vector<Priority> priorities = assign_edms_priorities(tasks);
  EXPECT_EQ(priorities[1], Priority(0));
  EXPECT_EQ(priorities[0], Priority(1));
}

TEST(EdmsTest, DensePriorityLevels) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(
        make_periodic(i, Duration::milliseconds(100 + 10 * i), {{0, 1000}}));
  }
  const std::vector<Priority> priorities = assign_edms_priorities(tasks);
  std::set<std::int32_t> levels;
  for (const Priority prio : priorities) levels.insert(prio.level());
  EXPECT_EQ(levels.size(), 8u);
  EXPECT_EQ(*levels.begin(), 0);
  EXPECT_EQ(*levels.rbegin(), 7);
}

TEST(EdmsTest, TaskSetOverload) {
  TaskSet set;
  ASSERT_TRUE(
      set.add(make_periodic(0, Duration::seconds(1), {{0, 1000}})).is_ok());
  const auto priorities = assign_edms_priorities(set);
  EXPECT_EQ(priorities.size(), 1u);
}

// --- LoadBalancer ------------------------------------------------------------

TEST(LoadBalancerTest, PicksLowestUtilizationReplica) {
  UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.6);
  (void)ledger.add(ProcessorId(1), 0.1);
  const auto task =
      make_periodic(0, Duration::seconds(1), {{0, 100000, {1}}});
  LoadBalancer balancer;
  const auto placement = balancer.place(task, ledger);
  ASSERT_EQ(placement.size(), 1u);
  EXPECT_EQ(placement[0], ProcessorId(1));
}

TEST(LoadBalancerTest, KeepsPrimaryOnTies) {
  UtilizationLedger ledger;
  const auto task = make_periodic(0, Duration::seconds(1), {{2, 1000, {0, 1}}});
  LoadBalancer balancer;
  const auto placement = balancer.place(task, ledger);
  EXPECT_EQ(placement[0], ProcessorId(2));  // no gratuitous re-allocation
}

TEST(LoadBalancerTest, RespectsReplicaSet) {
  UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.9);
  (void)ledger.add(ProcessorId(1), 0.8);
  // P5 is idle but not a candidate; placement must stay within {0, 1}.
  (void)ledger.add(ProcessorId(5), 0.0);
  const auto task = make_periodic(0, Duration::seconds(1), {{0, 1000, {1}}});
  LoadBalancer balancer;
  const auto placement = balancer.place(task, ledger);
  EXPECT_EQ(placement[0], ProcessorId(1));
}

TEST(LoadBalancerTest, AccountsForEarlierStagesOfSameCandidate) {
  UtilizationLedger ledger;
  // Both stages can go to P0 or P1, both empty.  The first stage stays on
  // its primary P0; the second stage must see P0 already carrying the first
  // stage's pending utilization and go to P1.
  const auto task = make_periodic(0, Duration::milliseconds(100),
                                  {{0, 30000, {1}}, {0, 30000, {1}}});
  LoadBalancer balancer;
  const auto placement = balancer.place(task, ledger);
  ASSERT_EQ(placement.size(), 2u);
  EXPECT_EQ(placement[0], ProcessorId(0));
  EXPECT_EQ(placement[1], ProcessorId(1));
}

TEST(LoadBalancerTest, PrimaryOnlyPolicyNeverMoves) {
  UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.9);
  const auto task = make_periodic(0, Duration::seconds(1), {{0, 1000, {1}}});
  LoadBalancer balancer(PlacementPolicy::kPrimaryOnly);
  EXPECT_EQ(balancer.place(task, ledger)[0], ProcessorId(0));
}

TEST(LoadBalancerTest, RandomPolicyUsesPickFunction) {
  UtilizationLedger ledger;
  const auto task = make_periodic(0, Duration::seconds(1), {{0, 1000, {1, 2}}});
  LoadBalancer balancer(PlacementPolicy::kRandomReplica);
  balancer.set_random_pick([](std::size_t) { return 2u; });  // always last
  EXPECT_EQ(balancer.place(task, ledger)[0], ProcessorId(2));
}

TEST(LoadBalancerTest, RandomPolicyWithoutPickFallsBackToPrimary) {
  UtilizationLedger ledger;
  const auto task = make_periodic(0, Duration::seconds(1), {{3, 1000, {1}}});
  LoadBalancer balancer(PlacementPolicy::kRandomReplica);
  EXPECT_EQ(balancer.place(task, ledger)[0], ProcessorId(3));
}

TEST(LoadBalancerTest, NoReplicasMeansPrimary) {
  UtilizationLedger ledger;
  (void)ledger.add(ProcessorId(0), 0.99);
  const auto task = make_periodic(0, Duration::seconds(1), {{0, 1000}});
  LoadBalancer balancer;
  EXPECT_EQ(balancer.place(task, ledger)[0], ProcessorId(0));
}

TEST(LoadBalancerTest, SpreadMetric) {
  UtilizationLedger ledger;
  const auto high = ledger.add(ProcessorId(0), 0.7);
  const auto low = ledger.add(ProcessorId(1), 0.2);
  // Totals are exact multiples of 2^-40, so their difference is exact.
  EXPECT_EQ(utilization_spread(ledger, {ProcessorId(0), ProcessorId(1)}),
            UtilizationLedger::utilization(high - low));
  EXPECT_EQ(utilization_spread(ledger, {ProcessorId(0)}), 0.0);
}

// Property: the heuristic never increases the utilization spread compared
// with primary placement, measured after hypothetically applying the
// placement.
TEST(LoadBalancerTest, HeuristicNeverWorseThanPrimaryForSpread) {
  Rng rng(17);
  for (int round = 0; round < 50; ++round) {
    UtilizationLedger ledger;
    std::vector<ProcessorId> procs;
    for (int p = 0; p < 4; ++p) {
      procs.push_back(ProcessorId(p));
      (void)ledger.add(ProcessorId(p), rng.uniform_real(0.0, 0.6));
    }
    const auto task = make_periodic(
        0, Duration::milliseconds(100),
        {{static_cast<std::int32_t>(rng.index(4)),
          static_cast<std::int64_t>(rng.uniform_int(1000, 30000)),
          {static_cast<std::int32_t>(rng.index(4))}}});
    // Skip degenerate replica == primary cases (invalid spec anyway).
    if (task.subtasks[0].replicas[0] == task.subtasks[0].primary) continue;

    LoadBalancer balanced;
    LoadBalancer primary(PlacementPolicy::kPrimaryOnly);

    auto spread_after = [&](const std::vector<ProcessorId>& placement) {
      UtilizationLedger copy = ledger;  // value copy
      for (std::size_t j = 0; j < placement.size(); ++j) {
        (void)copy.add(placement[j], task.subtask_utilization(j));
      }
      return utilization_spread(copy, procs);
    };
    // Exact: loading the lighter candidate can neither raise the maximum
    // nor lower the minimum more than loading the heavier one.
    EXPECT_LE(spread_after(balanced.place(task, ledger)),
              spread_after(primary.place(task, ledger)));
  }
}

// --- Generated imbalanced workloads ------------------------------------------

class GeneratedWorkloadTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratedWorkloadTest, EdmsPrioritiesDenseAndDeadlineMonotone) {
  rtcm::testing::ImbalancedShape shape;
  shape.primaries = 4;
  shape.replicas = 3;
  shape.utilization = 0.8;
  const auto tasks = rtcm::testing::make_imbalanced_workload(GetParam(), shape);
  const std::vector<Priority> priorities = assign_edms_priorities(tasks);
  ASSERT_EQ(priorities.size(), tasks.size());

  // Dense levels 0..n-1, one per task.
  std::set<std::int32_t> levels;
  for (const Priority priority : priorities) levels.insert(priority.level());
  EXPECT_EQ(levels.size(), tasks.size());
  EXPECT_EQ(*levels.begin(), 0);
  EXPECT_EQ(*levels.rbegin(), static_cast<std::int32_t>(tasks.size()) - 1);

  // Deadline-monotone: a more urgent level never has a longer deadline.
  for (std::size_t a = 0; a < tasks.size(); ++a) {
    for (std::size_t b = 0; b < tasks.size(); ++b) {
      if (priorities[a].preempts(priorities[b])) {
        EXPECT_LE(tasks.tasks()[a].deadline.usec(),
                  tasks.tasks()[b].deadline.usec());
      }
    }
  }
}

TEST_P(GeneratedWorkloadTest, LowestUtilPlacementStaysWithinReplicaSets) {
  const auto tasks = rtcm::testing::make_imbalanced_workload(GetParam());
  UtilizationLedger ledger;
  Rng load_rng(GetParam() + 1000);
  for (int p = 0; p < 5; ++p) {
    (void)ledger.add(ProcessorId(p), load_rng.uniform_real(0.0, 0.7));
  }
  LoadBalancer balancer;
  for (const TaskSpec& task : tasks.tasks()) {
    const auto placement = balancer.place(task, ledger);
    ASSERT_EQ(placement.size(), task.subtasks.size());
    for (std::size_t j = 0; j < placement.size(); ++j) {
      const SubtaskSpec& st = task.subtasks[j];
      const bool allowed =
          placement[j] == st.primary ||
          std::count(st.replicas.begin(), st.replicas.end(), placement[j]) > 0;
      EXPECT_TRUE(allowed) << "stage " << j << " of task " << task.name
                           << " placed off its replica set";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedWorkloadTest,
                         ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace rtcm::sched
