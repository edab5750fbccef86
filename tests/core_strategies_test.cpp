#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "core/criteria.h"
#include "core/strategies.h"

namespace rtcm::core {
namespace {

// --- StrategyCombination (Figure 2, §4.5) ------------------------------------

TEST(StrategyTest, EighteenTotalCombinations) {
  EXPECT_EQ(all_combinations().size(), 18u);
  std::set<std::string> labels;
  for (const auto& c : all_combinations()) labels.insert(c.label());
  EXPECT_EQ(labels.size(), 18u);
}

TEST(StrategyTest, ExactlyFifteenValidCombinations) {
  const auto valid = valid_combinations();
  EXPECT_EQ(valid.size(), 15u);
  for (const auto& c : valid) {
    EXPECT_TRUE(c.valid()) << c.label();
    EXPECT_TRUE(c.invalid_reason().empty());
  }
}

TEST(StrategyTest, TheThreeInvalidCombinationsAreAcTaskIrJob) {
  std::size_t invalid_count = 0;
  for (const auto& c : all_combinations()) {
    if (!c.valid()) {
      ++invalid_count;
      EXPECT_EQ(c.ac, AcStrategy::kPerTask);
      EXPECT_EQ(c.ir, IrStrategy::kPerJob);
      EXPECT_FALSE(c.invalid_reason().empty());
    }
  }
  EXPECT_EQ(invalid_count, 3u);
}

TEST(StrategyTest, LabelsMatchPaperFigureOrder) {
  const auto combos = all_combinations();
  EXPECT_EQ(combos.front().label(), "T_N_N");
  EXPECT_EQ(combos.back().label(), "J_J_J");
  const auto valid = valid_combinations();
  // The paper's figures enumerate: T_N_*, T_T_*, J_N_*, J_T_*, J_J_*.
  std::vector<std::string> expected = {
      "T_N_N", "T_N_T", "T_N_J", "T_T_N", "T_T_T", "T_T_J", "J_N_N", "J_N_T",
      "J_N_J", "J_T_N", "J_T_T", "J_T_J", "J_J_N", "J_J_T", "J_J_J"};
  std::vector<std::string> actual;
  for (const auto& c : valid) actual.push_back(c.label());
  EXPECT_EQ(actual, expected);
}

TEST(StrategyTest, ParseRoundTrip) {
  for (const auto& c : all_combinations()) {
    const auto parsed = StrategyCombination::parse(c.label());
    ASSERT_TRUE(parsed.is_ok()) << c.label();
    EXPECT_EQ(parsed.value(), c);
  }
}

TEST(StrategyTest, ParseIsCaseInsensitive) {
  const auto parsed = StrategyCombination::parse(" j_t_n ");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().label(), "J_T_N");
}

TEST(StrategyTest, ParseRejectsMalformed) {
  EXPECT_FALSE(StrategyCombination::parse("").is_ok());
  EXPECT_FALSE(StrategyCombination::parse("T_N").is_ok());
  EXPECT_FALSE(StrategyCombination::parse("X_N_N").is_ok());
  EXPECT_FALSE(StrategyCombination::parse("T_X_N").is_ok());
  EXPECT_FALSE(StrategyCombination::parse("T_N_X").is_ok());
  EXPECT_FALSE(StrategyCombination::parse("N_N_N").is_ok());  // AC has no N
  EXPECT_FALSE(StrategyCombination::parse("TT_N_N").is_ok());
}

TEST(StrategyTest, Names) {
  EXPECT_STREQ(to_string(AcStrategy::kPerTask), "AC per Task");
  EXPECT_STREQ(to_string(AcStrategy::kPerJob), "AC per Job");
  EXPECT_STREQ(to_string(IrStrategy::kNone), "No IR");
  EXPECT_STREQ(to_string(IrStrategy::kPerTask), "IR per Task");
  EXPECT_STREQ(to_string(IrStrategy::kPerJob), "IR per Job");
  EXPECT_STREQ(to_string(LbStrategy::kNone), "No LB");
  EXPECT_STREQ(to_string(LbStrategy::kPerTask), "LB per Task");
  EXPECT_STREQ(to_string(LbStrategy::kPerJob), "LB per Job");
}

// --- Criteria mapping (Table 1 + §6 question 4) ------------------------------

struct MappingCase {
  MappingCase(bool c1, bool c2, bool c3, OverheadTolerance tolerance,
              const char* label)
      : c1_job_skipping(c1),
        c2_state_persistency(c2),
        c3_replication(c3),
        overhead(tolerance),
        expected_label(label) {}

  bool c1_job_skipping;
  bool c2_state_persistency;
  bool c3_replication;
  // gtest prints a parameter without a PrintTo overload as a raw byte dump,
  // and ctest names each case after that dump. Without this member the byte
  // would be padding holding whatever the stack held, so a case's name could
  // change from one test discovery to the next.
  bool unused = false;
  OverheadTolerance overhead;
  const char* expected_label;
};
static_assert(std::has_unique_object_representations_v<MappingCase>,
              "MappingCase must have no padding bytes");

class CriteriaMappingTest : public ::testing::TestWithParam<MappingCase> {};

TEST_P(CriteriaMappingTest, MapsToExpectedCombination) {
  const MappingCase& param = GetParam();
  CpsCharacteristics c;
  c.job_skipping = param.c1_job_skipping;
  c.state_persistency = param.c2_state_persistency;
  c.component_replication = param.c3_replication;
  c.overhead_tolerance = param.overhead;
  const StrategySelection selection = select_strategies(c);
  EXPECT_EQ(selection.strategies.label(), param.expected_label);
  EXPECT_TRUE(selection.strategies.valid());
}

INSTANTIATE_TEST_SUITE_P(
    AllCorners, CriteriaMappingTest,
    ::testing::Values(
        // The paper's Figure 4 example: no skipping, replicated, stateful,
        // per-task overhead -> everything per task.
        MappingCase{false, true, true, OverheadTolerance::kPerTask, "T_T_T"},
        // No replication (C3 = no) -> LB disabled (Table 1 row 3).
        MappingCase{false, false, false, OverheadTolerance::kPerTask,
                    "T_T_N"},
        MappingCase{true, false, false, OverheadTolerance::kPerJob, "J_J_N"},
        // Job skipping + per-job overhead budget -> AC per job.
        MappingCase{true, false, true, OverheadTolerance::kPerJob, "J_J_J"},
        // Job skipping but budget only per-task -> AC stays per task.
        MappingCase{true, false, true, OverheadTolerance::kPerTask, "T_T_T"},
        // Stateful (C2 = yes) -> LB per task even with per-job budget.
        MappingCase{true, true, true, OverheadTolerance::kPerJob, "J_J_T"},
        // No overhead budget -> no idle resetting.
        MappingCase{false, false, true, OverheadTolerance::kNone, "T_N_T"},
        MappingCase{false, true, true, OverheadTolerance::kNone, "T_N_T"},
        // AC per Task + per-job budget would give IR per Job (invalid);
        // the mapper downgrades IR to per task.
        MappingCase{false, false, true, OverheadTolerance::kPerJob, "T_T_J"},
        MappingCase{false, true, false, OverheadTolerance::kPerJob, "T_T_N"}));

TEST(CriteriaTest, DowngradeNoteExplainsIrAdjustment) {
  CpsCharacteristics c;
  c.job_skipping = false;  // forces AC per Task
  c.component_replication = true;
  c.overhead_tolerance = OverheadTolerance::kPerJob;  // asks for IR per Job
  const StrategySelection selection = select_strategies(c);
  EXPECT_EQ(selection.strategies.ir, IrStrategy::kPerTask);
  bool found_note = false;
  for (const auto& note : selection.notes) {
    if (note.find("downgraded") != std::string::npos) found_note = true;
  }
  EXPECT_TRUE(found_note);
}

TEST(CriteriaTest, MapperAlwaysProducesValidCombination) {
  for (const bool c1 : {false, true}) {
    for (const bool c2 : {false, true}) {
      for (const bool c3 : {false, true}) {
        for (const OverheadTolerance o :
             {OverheadTolerance::kNone, OverheadTolerance::kPerTask,
              OverheadTolerance::kPerJob}) {
          CpsCharacteristics c{c1, c2, c3, o};
          EXPECT_TRUE(select_strategies(c).strategies.valid());
        }
      }
    }
  }
}

TEST(CriteriaTest, DefaultIsAllPerTask) {
  EXPECT_EQ(default_strategies().label(), "T_T_T");
}

TEST(CriteriaTest, OverheadToleranceNames) {
  EXPECT_STREQ(to_string(OverheadTolerance::kNone), "none");
  EXPECT_STREQ(to_string(OverheadTolerance::kPerTask), "per-task");
  EXPECT_STREQ(to_string(OverheadTolerance::kPerJob), "per-job");
}

}  // namespace
}  // namespace rtcm::core
