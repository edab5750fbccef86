#include <gtest/gtest.h>

#include "sched/task.h"
#include "test_helpers.h"

namespace rtcm::sched {
namespace {

using rtcm::testing::make_aperiodic;
using rtcm::testing::make_periodic;

TEST(SubtaskSpecTest, CandidatesIncludePrimaryFirst) {
  SubtaskSpec st;
  st.primary = ProcessorId(2);
  st.replicas = {ProcessorId(4), ProcessorId(1)};
  const auto candidates = st.candidates();
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0], ProcessorId(2));
  EXPECT_EQ(candidates[1], ProcessorId(4));
  EXPECT_EQ(candidates[2], ProcessorId(1));
}

TEST(TaskSpecTest, UtilizationIsExecOverDeadline) {
  const auto t = make_periodic(0, Duration::milliseconds(100),
                               {{0, 20000}, {1, 30000}});
  EXPECT_DOUBLE_EQ(t.subtask_utilization(0), 0.2);
  EXPECT_DOUBLE_EQ(t.subtask_utilization(1), 0.3);
  EXPECT_DOUBLE_EQ(t.total_utilization(), 0.5);
  EXPECT_EQ(t.stage_count(), 2u);
}

TEST(TaskSetTest, AddAndFind) {
  TaskSet set;
  EXPECT_TRUE(
      set.add(make_periodic(0, Duration::seconds(1), {{0, 1000}})).is_ok());
  EXPECT_TRUE(
      set.add(make_aperiodic(1, Duration::seconds(2), {{1, 1000}})).is_ok());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.periodic_count(), 1u);
  EXPECT_EQ(set.aperiodic_count(), 1u);
  ASSERT_NE(set.find(TaskId(1)), nullptr);
  EXPECT_EQ(set.find(TaskId(1))->kind, TaskKind::kAperiodic);
  EXPECT_EQ(set.find(TaskId(9)), nullptr);
}

// The id lookup is hashed, not a table indexed by the id's value: the
// largest ids cost no more than small ones, and unknown or negative ids
// are simply absent.
TEST(TaskSetTest, FindHandlesExtremeAndUnknownIds) {
  constexpr std::int32_t kLargest = 2147483646;  // 2^31 - 2
  TaskSet set;
  ASSERT_TRUE(
      set.add(make_periodic(0, Duration::seconds(1), {{0, 1000}})).is_ok());
  ASSERT_TRUE(set.add(make_aperiodic(kLargest, Duration::seconds(2),
                                     {{1, 1000}}))
                  .is_ok());
  ASSERT_NE(set.find(TaskId(kLargest)), nullptr);
  EXPECT_EQ(set.find(TaskId(kLargest))->kind, TaskKind::kAperiodic);
  ASSERT_NE(set.find(TaskId(0)), nullptr);
  EXPECT_EQ(set.find(TaskId(0))->kind, TaskKind::kPeriodic);
  EXPECT_EQ(set.find(TaskId(1)), nullptr);
  EXPECT_EQ(set.find(TaskId(kLargest - 1)), nullptr);
  EXPECT_EQ(set.find(TaskId(kLargest + 1)), nullptr);
  EXPECT_EQ(set.find(TaskId()), nullptr);
  EXPECT_EQ(set.find(TaskId(-7)), nullptr);
  EXPECT_FALSE(set.add(make_periodic(kLargest, Duration::seconds(1),
                                     {{0, 1000}}))
                   .is_ok());
  // Copies keep their own lookup.
  const TaskSet copy = set;
  ASSERT_NE(copy.find(TaskId(kLargest)), nullptr);
  EXPECT_EQ(copy.find(TaskId(kLargest)), &copy.tasks()[1]);
}

TEST(TaskSetTest, RejectsDuplicateIds) {
  TaskSet set;
  EXPECT_TRUE(
      set.add(make_periodic(0, Duration::seconds(1), {{0, 1000}})).is_ok());
  const Status s = set.add(make_periodic(0, Duration::seconds(1), {{1, 1000}}));
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("duplicate"), std::string::npos);
  EXPECT_EQ(set.size(), 1u);
}

TEST(TaskSetTest, ValidationRejectsNonPositiveDeadline) {
  auto t = make_periodic(0, Duration::seconds(1), {{0, 1000}});
  t.deadline = Duration::zero();
  EXPECT_FALSE(TaskSet::validate(t).is_ok());
}

TEST(TaskSetTest, ValidationRejectsPeriodicWithoutPeriod) {
  auto t = make_periodic(0, Duration::seconds(1), {{0, 1000}});
  t.period = Duration::zero();
  EXPECT_FALSE(TaskSet::validate(t).is_ok());
}

TEST(TaskSetTest, ValidationRejectsEmptySubtasks) {
  auto t = make_periodic(0, Duration::seconds(1), {{0, 1000}});
  t.subtasks.clear();
  EXPECT_FALSE(TaskSet::validate(t).is_ok());
}

TEST(TaskSetTest, ValidationRejectsZeroExecution) {
  auto t = make_periodic(0, Duration::seconds(1), {{0, 1000}});
  t.subtasks[0].execution = Duration::zero();
  EXPECT_FALSE(TaskSet::validate(t).is_ok());
}

TEST(TaskSetTest, ValidationRejectsExecutionBeyondDeadline) {
  auto t = make_periodic(0, Duration::milliseconds(10), {{0, 20000}});
  EXPECT_FALSE(TaskSet::validate(t).is_ok());
}

TEST(TaskSetTest, ValidationRejectsInvalidPrimary) {
  auto t = make_periodic(0, Duration::seconds(1), {{0, 1000}});
  t.subtasks[0].primary = ProcessorId();
  EXPECT_FALSE(TaskSet::validate(t).is_ok());
}

TEST(TaskSetTest, ValidationRejectsReplicaEqualToPrimary) {
  auto t = make_periodic(0, Duration::seconds(1), {{0, 1000, {0}}});
  EXPECT_FALSE(TaskSet::validate(t).is_ok());
}

TEST(TaskSetTest, ValidationRejectsDuplicateReplicas) {
  auto t = make_periodic(0, Duration::seconds(1), {{0, 1000, {1, 1}}});
  EXPECT_FALSE(TaskSet::validate(t).is_ok());
}

TEST(TaskSetTest, ValidationRejectsInvalidId) {
  auto t = make_periodic(0, Duration::seconds(1), {{0, 1000}});
  t.id = TaskId();
  EXPECT_FALSE(TaskSet::validate(t).is_ok());
}

TEST(TaskSetTest, ProcessorsCoverPrimariesAndReplicas) {
  TaskSet set;
  ASSERT_TRUE(set.add(make_periodic(0, Duration::seconds(1), {{0, 1000, {3}}}))
                  .is_ok());
  ASSERT_TRUE(
      set.add(make_aperiodic(1, Duration::seconds(1), {{2, 1000}})).is_ok());
  const auto procs = set.processors();
  ASSERT_EQ(procs.size(), 3u);
  EXPECT_EQ(procs[0], ProcessorId(0));
  EXPECT_EQ(procs[1], ProcessorId(2));
  EXPECT_EQ(procs[2], ProcessorId(3));
}

TEST(TaskKindTest, ToString) {
  EXPECT_STREQ(to_string(TaskKind::kPeriodic), "periodic");
  EXPECT_STREQ(to_string(TaskKind::kAperiodic), "aperiodic");
}

}  // namespace
}  // namespace rtcm::sched
