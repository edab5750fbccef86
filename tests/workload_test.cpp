#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>

#include "sched/analysis.h"
#include "test_helpers.h"
#include "workload/arrival.h"
#include "workload/generator.h"

namespace rtcm::workload {
namespace {

// Parameterized over seeds: structural invariants of the §7.1 generator.
class RandomWorkloadTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorkloadTest, MatchesPaperSection71Parameters) {
  Rng rng(GetParam());
  const WorkloadShape shape = random_workload_shape();
  const sched::TaskSet set = generate_workload(shape, rng);

  // 9 tasks: 5 periodic + 4 aperiodic.
  EXPECT_EQ(set.size(), 9u);
  EXPECT_EQ(set.periodic_count(), 5u);
  EXPECT_EQ(set.aperiodic_count(), 4u);

  for (const sched::TaskSpec& t : set.tasks()) {
    // 1-5 subtasks per task.
    EXPECT_GE(t.subtasks.size(), 1u);
    EXPECT_LE(t.subtasks.size(), 5u);
    // Deadlines in [250 ms, 10 s].
    EXPECT_GE(t.deadline, Duration::milliseconds(250));
    EXPECT_LE(t.deadline, Duration::seconds(10));
    if (t.kind == sched::TaskKind::kPeriodic) {
      // Periods equal deadlines.
      EXPECT_EQ(t.period, t.deadline);
    } else {
      EXPECT_GT(t.mean_interarrival, Duration::zero());
    }
    for (const sched::SubtaskSpec& st : t.subtasks) {
      // Subtasks on the 5 application processors.
      EXPECT_GE(st.primary.value(), 0);
      EXPECT_LE(st.primary.value(), 4);
      // Every subtask has exactly one duplicate on a different processor.
      ASSERT_EQ(st.replicas.size(), 1u);
      EXPECT_NE(st.replicas[0], st.primary);
      EXPECT_GE(st.replicas[0].value(), 0);
      EXPECT_LE(st.replicas[0].value(), 4);
    }
    // The whole spec validates.
    EXPECT_TRUE(sched::TaskSet::validate(t).is_ok());
  }
}

TEST_P(RandomWorkloadTest, SimultaneousUtilizationIsCalibrated) {
  Rng rng(GetParam());
  const sched::TaskSet set = generate_workload(random_workload_shape(), rng);
  const auto utils = sched::simultaneous_utilization(set);
  // Every application processor carries (close to) the 0.5 target; rounding
  // execution times to whole microseconds introduces only tiny error.
  ASSERT_EQ(utils.size(), 5u);
  for (const auto& [proc, u] : utils) {
    EXPECT_NEAR(u, 0.5, 0.01) << proc.to_string();
  }
}

TEST_P(RandomWorkloadTest, DeterministicInSeed) {
  Rng rng1(GetParam());
  Rng rng2(GetParam());
  const auto a = generate_workload(random_workload_shape(), rng1);
  const auto b = generate_workload(random_workload_shape(), rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.tasks()[i].deadline, b.tasks()[i].deadline);
    EXPECT_EQ(a.tasks()[i].subtasks.size(), b.tasks()[i].subtasks.size());
    for (std::size_t j = 0; j < a.tasks()[i].subtasks.size(); ++j) {
      EXPECT_EQ(a.tasks()[i].subtasks[j].primary,
                b.tasks()[i].subtasks[j].primary);
      EXPECT_EQ(a.tasks()[i].subtasks[j].execution,
                b.tasks()[i].subtasks[j].execution);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- §7.2 imbalanced ---------------------------------------------------------

class ImbalancedWorkloadTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ImbalancedWorkloadTest, MatchesPaperSection72Parameters) {
  Rng rng(GetParam());
  const sched::TaskSet set =
      generate_workload(imbalanced_workload_shape(), rng);
  const auto utils = sched::simultaneous_utilization(set);
  // Three primary processors at 0.7; replicas only on P3/P4.
  for (std::int32_t p = 0; p <= 2; ++p) {
    EXPECT_NEAR(utils.at(ProcessorId(p)), 0.7, 0.01);
  }
  for (const sched::TaskSpec& t : set.tasks()) {
    EXPECT_GE(t.subtasks.size(), 1u);
    EXPECT_LE(t.subtasks.size(), 3u);
    for (const sched::SubtaskSpec& st : t.subtasks) {
      EXPECT_LE(st.primary.value(), 2);
      ASSERT_EQ(st.replicas.size(), 1u);
      EXPECT_GE(st.replicas[0].value(), 3);
      EXPECT_LE(st.replicas[0].value(), 4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImbalancedWorkloadTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Generalized imbalanced shapes (test_helpers builder) --------------------

struct ImbalancedBuilderCase {
  std::size_t primaries;
  std::size_t replicas;
  double utilization;
};

void PrintTo(const ImbalancedBuilderCase& c, std::ostream* os) {
  *os << "primaries=" << c.primaries << " replicas=" << c.replicas
      << " U=" << c.utilization;
}

class ImbalancedBuilderTest
    : public ::testing::TestWithParam<ImbalancedBuilderCase> {};

TEST_P(ImbalancedBuilderTest, CalibratedOnEveryPrimaryProcessor) {
  const ImbalancedBuilderCase& p = GetParam();
  rtcm::testing::ImbalancedShape opt;
  opt.primaries = p.primaries;
  opt.replicas = p.replicas;
  opt.utilization = p.utilization;
  const sched::TaskSet set = rtcm::testing::make_imbalanced_workload(77, opt);
  const auto utils = sched::simultaneous_utilization(set);
  for (std::size_t proc = 0; proc < p.primaries; ++proc) {
    EXPECT_NEAR(utils.at(ProcessorId(static_cast<std::int32_t>(proc))),
                p.utilization, 0.01);
  }
  for (const sched::TaskSpec& t : set.tasks()) {
    for (const sched::SubtaskSpec& st : t.subtasks) {
      // Primaries live on the primary band, replicas on the replica band.
      EXPECT_LT(st.primary.value(), static_cast<std::int32_t>(p.primaries));
      for (const ProcessorId replica : st.replicas) {
        EXPECT_GE(replica.value(), static_cast<std::int32_t>(p.primaries));
        EXPECT_LT(replica.value(),
                  static_cast<std::int32_t>(p.primaries + p.replicas));
      }
    }
  }
}

TEST_P(ImbalancedBuilderTest, DeterministicPerSeed) {
  const ImbalancedBuilderCase& p = GetParam();
  rtcm::testing::ImbalancedShape opt;
  opt.primaries = p.primaries;
  opt.replicas = p.replicas;
  opt.utilization = p.utilization;
  const sched::TaskSet a = rtcm::testing::make_imbalanced_workload(5, opt);
  const sched::TaskSet b = rtcm::testing::make_imbalanced_workload(5, opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sched::TaskSpec& ta = a.tasks()[i];
    const sched::TaskSpec& tb = b.tasks()[i];
    EXPECT_EQ(ta.id, tb.id);
    EXPECT_EQ(ta.deadline, tb.deadline);
    ASSERT_EQ(ta.subtasks.size(), tb.subtasks.size());
    for (std::size_t j = 0; j < ta.subtasks.size(); ++j) {
      EXPECT_EQ(ta.subtasks[j].primary, tb.subtasks[j].primary);
      EXPECT_EQ(ta.subtasks[j].execution, tb.subtasks[j].execution);
      EXPECT_EQ(ta.subtasks[j].replicas, tb.subtasks[j].replicas);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ImbalancedBuilderTest,
    ::testing::Values(ImbalancedBuilderCase{2, 1, 0.6},
                      ImbalancedBuilderCase{4, 2, 0.7},
                      ImbalancedBuilderCase{6, 3, 0.85}),
    [](const ::testing::TestParamInfo<ImbalancedBuilderCase>& info) {
      return "P" + std::to_string(info.param.primaries) + "R" +
             std::to_string(info.param.replicas);
    });

// --- Bursty arrival traces (test_helpers builder) ----------------------------

TEST(BurstyArrivalTest, ShapeProducesSortedBurstClusters) {
  rtcm::testing::BurstShape shape;
  shape.bursts = 4;
  shape.jobs_per_burst = 6;
  shape.intra_gap = Duration::milliseconds(2);
  shape.inter_gap = Duration::milliseconds(300);
  const auto trace = rtcm::testing::make_bursty_arrivals(TaskId(3), shape);
  ASSERT_EQ(trace.size(), 24u);
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    EXPECT_LE(trace[i].time, trace[i + 1].time);
    const Duration gap = trace[i + 1].time - trace[i].time;
    // Gaps are either intra-burst or the burst separator; nothing else.
    const bool boundary = (i + 1) % shape.jobs_per_burst == 0;
    EXPECT_EQ(gap, boundary ? shape.intra_gap + shape.inter_gap
                            : shape.intra_gap);
  }
}

TEST(BurstyArrivalTest, MultiTaskTraceIsTimeSortedAndComplete) {
  rtcm::testing::BurstShape shape;
  shape.bursts = 2;
  shape.jobs_per_burst = 5;
  const auto trace = rtcm::testing::make_bursty_arrivals(
      {TaskId(0), TaskId(1), TaskId(2)}, shape);
  ASSERT_EQ(trace.size(), 30u);
  std::map<std::int32_t, std::size_t> per_task;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) EXPECT_LE(trace[i - 1].time, trace[i].time);
    ++per_task[trace[i].task.value()];
  }
  for (const auto& [task, count] : per_task) EXPECT_EQ(count, 10u);
  EXPECT_EQ(per_task.size(), 3u);
}

// --- §7.3 overhead shape -----------------------------------------------------

TEST(OverheadShapeTest, ThreeProcessorsShortChains) {
  Rng rng(4);
  const sched::TaskSet set = generate_workload(overhead_workload_shape(), rng);
  for (const sched::TaskSpec& t : set.tasks()) {
    EXPECT_LE(t.subtasks.size(), 3u);
    for (const auto& st : t.subtasks) EXPECT_LE(st.primary.value(), 2);
  }
}

// --- Generator edge cases ----------------------------------------------------

TEST(GeneratorTest, NoReplicationWhenDisabled) {
  Rng rng(6);
  WorkloadShape shape = random_workload_shape();
  shape.replicate = false;
  const auto set = generate_workload(shape, rng);
  for (const auto& t : set.tasks()) {
    for (const auto& st : t.subtasks) EXPECT_TRUE(st.replicas.empty());
  }
}

TEST(GeneratorTest, EveryPrimaryProcessorHosted) {
  // The repair pass guarantees no empty processor, so the per-processor
  // utilization target is realizable everywhere.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const auto set = generate_workload(random_workload_shape(), rng);
    std::map<ProcessorId, int> hosted;
    for (const auto& t : set.tasks()) {
      for (const auto& st : t.subtasks) ++hosted[st.primary];
    }
    EXPECT_EQ(hosted.size(), 5u) << "seed " << seed;
  }
}

TEST(GeneratorTest, InterarrivalFactorScalesMean) {
  Rng rng1(9);
  Rng rng2(9);
  WorkloadShape fast = random_workload_shape();
  fast.aperiodic_interarrival_factor = 1.0;
  WorkloadShape slow = random_workload_shape();
  slow.aperiodic_interarrival_factor = 3.0;
  const auto a = generate_workload(fast, rng1);
  const auto b = generate_workload(slow, rng2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.tasks()[i].kind == sched::TaskKind::kAperiodic) {
      EXPECT_EQ(a.tasks()[i].mean_interarrival * 3,
                b.tasks()[i].mean_interarrival);
    }
  }
}

// --- Arrival traces ----------------------------------------------------------

TEST(ArrivalTest, PeriodicArrivalsAreExact) {
  sched::TaskSpec t;
  t.id = TaskId(0);
  t.kind = sched::TaskKind::kPeriodic;
  t.deadline = Duration::milliseconds(100);
  t.period = Duration::milliseconds(100);
  t.subtasks.push_back({Duration(1000), ProcessorId(0), {}});
  Rng rng(1);
  const auto trace =
      generate_task_arrivals(t, Time(Duration::milliseconds(350).usec()), rng);
  ASSERT_EQ(trace.size(), 4u);  // 0, 100, 200, 300 ms
  for (std::size_t k = 0; k < trace.size(); ++k) {
    EXPECT_EQ(trace[k].time,
              Time(Duration::milliseconds(100 * static_cast<std::int64_t>(k))
                       .usec()));
  }
}

TEST(ArrivalTest, PoissonMeanInterarrivalApproximatelyRight) {
  sched::TaskSpec t;
  t.id = TaskId(0);
  t.kind = sched::TaskKind::kAperiodic;
  t.deadline = Duration::milliseconds(100);
  t.mean_interarrival = Duration::milliseconds(50);
  t.subtasks.push_back({Duration(1000), ProcessorId(0), {}});
  Rng rng(42);
  const Time horizon(Duration::seconds(100).usec());
  const auto trace = generate_task_arrivals(t, horizon, rng);
  // ~2000 arrivals expected over 100 s at 50 ms mean interarrival.
  EXPECT_GT(trace.size(), 1700u);
  EXPECT_LT(trace.size(), 2300u);
  // First arrival at time zero ("all tasks arrive simultaneously").
  EXPECT_EQ(trace.front().time, Time::epoch());
}

TEST(ArrivalTest, CombinedTraceSortedAndComplete) {
  Rng rng(3);
  const auto set = generate_workload(random_workload_shape(), rng);
  Rng arrivals_rng = rng.fork(1);
  const Time horizon(Duration::seconds(30).usec());
  const auto trace = generate_arrivals(set, horizon, arrivals_rng);
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].time, trace[i].time);
  }
  for (const auto& a : trace) {
    EXPECT_LT(a.time, horizon);
    EXPECT_NE(set.find(a.task), nullptr);
  }
  // Every task arrives at least once (periodic at t=0; aperiodic start at 0).
  std::map<TaskId, int> counts;
  for (const auto& a : trace) ++counts[a.task];
  EXPECT_EQ(counts.size(), set.size());
}

TEST(ArrivalTest, UtilizationMassMatchesManualSum) {
  Rng rng(5);
  const auto set = generate_workload(random_workload_shape(), rng);
  Rng arrivals_rng = rng.fork(1);
  const auto trace =
      generate_arrivals(set, Time(Duration::seconds(10).usec()), arrivals_rng);
  double manual = 0;
  for (const auto& a : trace) manual += set.find(a.task)->total_utilization();
  EXPECT_NEAR(arrival_utilization(set, trace), manual, 1e-9);
}

TEST(ArrivalTest, PerTaskStreamsIndependentOfOtherTasks) {
  // The same task id gets the same arrivals regardless of other tasks in
  // the set (fork-per-task isolation).
  sched::TaskSet small;
  sched::TaskSet large;
  auto make = [](std::int32_t id, Duration mean) {
    sched::TaskSpec t;
    t.id = TaskId(id);
    t.kind = sched::TaskKind::kAperiodic;
    t.deadline = Duration::milliseconds(500);
    t.mean_interarrival = mean;
    t.subtasks.push_back({Duration(1000), ProcessorId(0), {}});
    return t;
  };
  ASSERT_TRUE(small.add(make(0, Duration::milliseconds(70))).is_ok());
  ASSERT_TRUE(large.add(make(0, Duration::milliseconds(70))).is_ok());
  ASSERT_TRUE(large.add(make(1, Duration::milliseconds(90))).is_ok());

  const Time horizon(Duration::seconds(5).usec());
  Rng rng_a(17);
  Rng rng_b(17);
  const auto trace_a = generate_arrivals(small, horizon, rng_a);
  const auto trace_b = generate_arrivals(large, horizon, rng_b);
  std::vector<Time> t0_a;
  std::vector<Time> t0_b;
  for (const auto& a : trace_a) {
    if (a.task == TaskId(0)) t0_a.push_back(a.time);
  }
  for (const auto& b : trace_b) {
    if (b.task == TaskId(0)) t0_b.push_back(b.time);
  }
  EXPECT_EQ(t0_a, t0_b);
}

}  // namespace
}  // namespace rtcm::workload
