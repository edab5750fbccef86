// Sweep engine: determinism and report round-trips.
//
// The headline property: a sweep of the Figure-5 grid renders
// byte-identical results every time and in any cell order, and any one
// cell rerun alone reproduces what the whole sweep computed for it.  `ctest -R Sweep`
// selects this layer.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/report.h"
#include "sweep/sweep.h"
#include "test_helpers.h"

namespace rtcm {
namespace {

/// The Figure-5 grid (all 15 valid combinations on the §7.1 random
/// workload), sized down for test runtime: fewer seeds and a shorter
/// horizon exercise exactly the same code paths per cell.
sweep::Grid figure5_grid(int seeds) {
  sweep::Grid grid;
  grid.combos = core::valid_combinations();
  grid.shapes = {{"random", workload::random_workload_shape()}};
  grid.seeds = seeds;
  return grid;
}

sweep::SweepParams fast_params() {
  sweep::SweepParams params;
  params.base.horizon = Duration::seconds(10);
  params.base.drain = Duration::seconds(5);
  return params;
}

sweep::Report report_of(std::string name,
                        std::vector<sweep::CellResult> cells) {
  sweep::Report report;
  report.name = std::move(name);
  report.git_sha = "test";
  report.cells = std::move(cells);
  return report;
}

TEST(SweepGrid, CellsEnumerateComboMajorWithSeedsInnermost) {
  sweep::Grid grid;
  grid.combos = {core::StrategyCombination::parse("T_N_N").value(),
                 core::StrategyCombination::parse("J_J_J").value()};
  grid.shapes = {{"a", workload::random_workload_shape()},
                 {"b", workload::imbalanced_workload_shape()}};
  grid.variants = {"x", "y"};
  grid.seeds = 3;

  const auto cells = grid.cells();
  ASSERT_EQ(cells.size(), 2u * 2u * 2u * 3u);
  EXPECT_EQ(cells[0].combo, "T_N_N");
  EXPECT_EQ(cells[0].shape, "a");
  EXPECT_EQ(cells[0].variant, "x");
  EXPECT_EQ(cells[0].seed, 1u);
  EXPECT_EQ(cells[1].seed, 2u);
  EXPECT_EQ(cells[3].variant, "y");
  EXPECT_EQ(cells[6].shape, "b");
  EXPECT_EQ(cells[12].combo, "J_J_J");
  EXPECT_EQ(cells.back().seed, 3u);
}

TEST(SweepEngine, CellOrderDoesNotChangeSweepBytes) {
  // No state leaks from one cell into the next: the Figure-5 grid swept
  // with its combination axis reversed computes, cell for cell, the same
  // bytes as the sweep in canonical order.
  const sweep::Grid grid = figure5_grid(3);
  sweep::Grid reversed = grid;
  std::reverse(reversed.combos.begin(), reversed.combos.end());
  const sweep::SweepParams params = fast_params();

  const auto forward = sweep::run_sweep(grid, params);
  const auto backward = sweep::run_sweep(reversed, params);
  ASSERT_EQ(forward.size(), grid.cells().size());
  ASSERT_EQ(backward.size(), forward.size());

  // Put the reversed sweep's cells back into canonical order.
  std::vector<sweep::CellResult> reordered;
  for (const sweep::CellResult& want : forward) {
    const auto match = std::find_if(
        backward.begin(), backward.end(), [&](const sweep::CellResult& r) {
          return r.cell.combo == want.cell.combo &&
                 r.cell.shape == want.cell.shape &&
                 r.cell.variant == want.cell.variant &&
                 r.cell.seed == want.cell.seed;
        });
    ASSERT_NE(match, backward.end()) << want.cell.combo;
    reordered.push_back(*match);
  }

  const std::string forward_bytes =
      report_of("fig5", forward).deterministic_dump();
  ASSERT_FALSE(forward_bytes.empty());
  EXPECT_EQ(forward_bytes, report_of("fig5", reordered).deterministic_dump());

  // The sweep actually simulated something: ratios are populated and no
  // cell errored.
  for (const auto& cell : forward) {
    EXPECT_TRUE(cell.error.empty()) << cell.error;
    EXPECT_GT(cell.accept_ratio, 0.0);
    EXPECT_LE(cell.accept_ratio, 1.0);
  }
}

TEST(SweepEngine, RepeatedSweepsAreByteIdentical) {
  const sweep::Grid grid = figure5_grid(2);
  const sweep::SweepParams params = fast_params();

  const std::string first =
      report_of("r", sweep::run_sweep(grid, params)).deterministic_dump();
  const std::string second =
      report_of("r", sweep::run_sweep(grid, params)).deterministic_dump();
  EXPECT_EQ(first, second);
}

TEST(SweepEngine, ConfigureHookSeesVariantAxis) {
  sweep::Grid grid;
  grid.combos = {core::StrategyCombination::parse("J_N_T").value()};
  grid.shapes = {{"imbalanced", workload::imbalanced_workload_shape()}};
  grid.variants = {"primary", "lowest-util"};
  grid.seeds = 2;

  sweep::SweepParams params = fast_params();
  params.specialize = [](const sweep::Cell& cell,
                         scenario::ScenarioSpec& spec) {
    spec.config.lb_policy = cell.variant;
  };

  const auto results = sweep::run_sweep(grid, params);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& cell : results) {
    EXPECT_TRUE(cell.error.empty()) << cell.error;
  }
  const sweep::Report report = report_of("lb", results);
  // On the imbalanced workload the paper's heuristic must beat no-LB.
  EXPECT_GT(report.mean_accept_ratio("J_N_T", "lowest-util"),
            report.mean_accept_ratio("J_N_T", "primary"));
}

/// The reconfiguration axis: "reconfig" cells run a scripted mid-run mode
/// change (LB strategy swap + node drain + undrain) inside each cell's own
/// simulator/manager pair; "static" cells are the control.
sweep::SweepParams mode_change_params() {
  sweep::SweepParams params = fast_params();
  params.specialize = [](const sweep::Cell& cell,
                         scenario::ScenarioSpec& spec) {
    if (cell.variant != "reconfig") return;
    spec.reconfig = rtcm::testing::ReconfigScriptBuilder()
                        .swap_strategies(Time(Duration::seconds(2).usec()),
                                         "J_N_J")
                        .drain(Time(Duration::seconds(3).usec()), 4)
                        .swap_lb_policy(Time(Duration::seconds(4).usec()),
                                        "primary")
                        .undrain(Time(Duration::seconds(6).usec()), 4)
                        .build();
  };
  return params;
}

TEST(SweepEngine, ModeChangeCellsAreByteIdenticalOnRerun) {
  sweep::Grid grid;
  grid.combos = {core::StrategyCombination::parse("T_N_N").value(),
                 core::StrategyCombination::parse("J_J_J").value()};
  grid.shapes = {{"imbalanced", workload::imbalanced_workload_shape()}};
  grid.variants = {"static", "reconfig"};
  grid.seeds = 2;
  const sweep::SweepParams params = mode_change_params();

  const auto first = sweep::run_sweep(grid, params);
  const auto second = sweep::run_sweep(grid, params);

  EXPECT_EQ(report_of("reconfig", first).deterministic_dump(),
            report_of("reconfig", second).deterministic_dump());

  ASSERT_EQ(first.size(), grid.cells().size());
  for (const auto& cell : first) {
    EXPECT_TRUE(cell.error.empty()) << cell.error;
    EXPECT_EQ(cell.deadline_misses, 0u);
    if (cell.cell.variant == "reconfig") {
      // The script's swap + drain + undrain all applied in-cell.
      EXPECT_GE(cell.reconfig_applied, 3u) << cell.cell.combo;
    } else {
      EXPECT_EQ(cell.reconfig_applied, 0u);
      EXPECT_EQ(cell.reconfig_rejected, 0u);
    }
  }
}

TEST(SweepReport, ReconfigCountersSurviveJsonRoundTrip) {
  std::vector<sweep::CellResult> cells(2);
  cells[0].cell = {"T_N_N", "s", "reconfig", 1};
  cells[0].reconfig_applied = 3;
  cells[0].reconfig_rejected = 1;
  cells[1].cell = {"T_N_N", "s", "static", 1};
  const sweep::Report report = report_of("rc", std::move(cells));

  const auto parsed = json::Value::parse(report.to_json().dump());
  ASSERT_TRUE(parsed.is_ok());
  const auto restored = sweep::Report::from_json(parsed.value());
  ASSERT_TRUE(restored.is_ok()) << restored.message();
  EXPECT_EQ(restored.value().cells[0].reconfig_applied, 3u);
  EXPECT_EQ(restored.value().cells[0].reconfig_rejected, 1u);
  EXPECT_EQ(restored.value().cells[1].reconfig_applied, 0u);
  // Cells without reconfiguration keep the historical byte layout.
  EXPECT_EQ(report.to_json().dump().find("reconfig_applied\":0"),
            std::string::npos);
}

TEST(SweepEngine, AnyCellOfAFullSweepRerunsBitExact) {
  // The "reproduce any nightly cell on a laptop" contract: a cell's result
  // is a pure function of its coordinates, so run_cell alone reproduces
  // what the whole sweep computed for it.
  const sweep::Grid grid = figure5_grid(2);
  const sweep::SweepParams params = fast_params();
  const std::vector<sweep::CellResult> swept = sweep::run_sweep(grid, params);
  ASSERT_EQ(swept.size(), grid.cells().size());

  for (const sweep::CellResult& from_sweep : swept) {
    const sweep::CellResult rerun = sweep::run_cell(
        from_sweep.cell, workload::random_workload_shape(), params);
    EXPECT_TRUE(rerun.error.empty()) << rerun.error;
    EXPECT_EQ(rerun.accept_ratio, from_sweep.accept_ratio)
        << from_sweep.cell.combo << " seed " << from_sweep.cell.seed;
    EXPECT_EQ(rerun.deadline_misses, from_sweep.deadline_misses);
    EXPECT_EQ(rerun.aperiodic_response_ms, from_sweep.aperiodic_response_ms);
  }
}

TEST(SweepEngine, InvalidComboSurfacesAsCellError) {
  const sweep::CellResult direct = sweep::run_cell(
      sweep::Cell{"not-a-combo", "random", "", 1},
      workload::random_workload_shape(), fast_params());
  EXPECT_FALSE(direct.error.empty());
  EXPECT_EQ(direct.accept_ratio, 0.0);
}

TEST(SweepReport, JsonRoundTripPreservesCellsAndParams) {
  sweep::Grid grid = figure5_grid(2);
  grid.combos = {core::StrategyCombination::parse("J_J_N").value(),
                 core::StrategyCombination::parse("T_N_N").value()};
  sweep::Report report =
      report_of("roundtrip", sweep::run_sweep(grid, fast_params()));
  report.params.set("seeds", 2);
  report.params.set("horizon_s", 10);

  const std::string bytes = report.to_json().dump();
  const auto parsed = json::Value::parse(bytes);
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const auto restored = sweep::Report::from_json(parsed.value());
  ASSERT_TRUE(restored.is_ok()) << restored.message();

  const sweep::Report& r = restored.value();
  EXPECT_EQ(r.name, report.name);
  EXPECT_EQ(r.git_sha, report.git_sha);
  EXPECT_EQ(r.params.get("seeds").as_int(), 2);
  ASSERT_EQ(r.cells.size(), report.cells.size());
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    EXPECT_EQ(r.cells[i].cell.combo, report.cells[i].cell.combo);
    EXPECT_EQ(r.cells[i].cell.seed, report.cells[i].cell.seed);
    EXPECT_DOUBLE_EQ(r.cells[i].accept_ratio, report.cells[i].accept_ratio);
    EXPECT_EQ(r.cells[i].deadline_misses, report.cells[i].deadline_misses);
  }
  // Serialize -> parse -> serialize is a fixed point (canonical form).
  EXPECT_EQ(r.to_json().dump(), bytes);
}

TEST(SweepReport, DeterministicDumpOmitsTimingAndProvenance) {
  sweep::Grid grid;
  grid.combos = {core::StrategyCombination::parse("T_N_N").value()};
  grid.shapes = {{"random", workload::random_workload_shape()}};
  grid.seeds = 1;
  sweep::Report report =
      report_of("det", sweep::run_sweep(grid, fast_params()));

  const std::string full = report.to_json().dump();
  const std::string det = report.deterministic_dump();
  EXPECT_NE(full.find("wall_ms"), std::string::npos);
  EXPECT_NE(full.find("git_sha"), std::string::npos);
  EXPECT_EQ(det.find("wall_ms"), std::string::npos);
  EXPECT_EQ(det.find("git_sha"), std::string::npos);
  EXPECT_NE(det.find("accept_ratio"), std::string::npos);
}

TEST(SweepReport, FromJsonRejectsWrongSchemaVersion) {
  json::Value doc = json::Value::object();
  doc.set("schema_version", 999);
  doc.set("name", "x");
  EXPECT_FALSE(sweep::Report::from_json(doc).is_ok());
  EXPECT_FALSE(sweep::Report::from_json(json::Value("nope")).is_ok());
}

TEST(SweepReport, SchemaVersion1DocumentsStillParse) {
  json::Value cell = json::Value::object();
  cell.set("combo", "T_N_N");
  cell.set("shape", "random");
  cell.set("variant", "");
  cell.set("seed", 1);
  cell.set("accept_ratio", 0.5);
  cell.set("deadline_misses", 0);
  cell.set("aperiodic_response_ms", 1.0);
  cell.set("wall_ms", 2.0);
  json::Value cells = json::Value::array();
  cells.push_back(cell);
  json::Value doc = json::Value::object();
  doc.set("schema_version", 1);
  doc.set("name", "legacy");
  doc.set("git_sha", "old");
  doc.set("params", json::Value::object());
  doc.set("cells", cells);

  const auto report = sweep::Report::from_json(doc);
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().schema_version, 1);
  ASSERT_EQ(report.value().cells.size(), 1u);
  EXPECT_EQ(report.value().cells[0].accept_ratio, 0.5);

  doc.set("schema_version", 3);
  EXPECT_FALSE(sweep::Report::from_json(doc).is_ok());
}

TEST(SweepReport, SplitRunProvenanceKeysAreIgnored) {
  // Schema-2 baselines written when grids were still split across machines
  // carry "shard" / "merged_shards" keys.  No report writes them now; old
  // ones still parse, and the keys drop out on re-serialization.
  sweep::Report plain = report_of(
      "fig5", sweep::run_sweep(figure5_grid(1), fast_params()));
  EXPECT_EQ(plain.to_json().dump().find("shard"), std::string::npos);
  json::Value doc = plain.to_json();
  json::Value shard = json::Value::object();
  shard.set("index", 1);
  shard.set("count", 1);
  doc.set("shard", shard);
  doc.set("merged_shards", 4);

  const auto parsed = sweep::Report::from_json(doc);
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  EXPECT_EQ(parsed.value().to_json().dump(), plain.to_json().dump());
}

TEST(SweepReport, AggregatesGroupByComboShapeVariant) {
  std::vector<sweep::CellResult> cells(4);
  cells[0].cell = {"A", "s", "", 1};
  cells[0].accept_ratio = 0.5;
  cells[1].cell = {"A", "s", "", 2};
  cells[1].accept_ratio = 0.7;
  cells[2].cell = {"B", "s", "", 1};
  cells[2].accept_ratio = 1.0;
  cells[3].cell = {"A", "t", "", 1};
  cells[3].accept_ratio = 0.1;
  const sweep::Report report = report_of("agg", std::move(cells));

  const auto aggregates = report.aggregates();
  ASSERT_EQ(aggregates.size(), 3u);
  EXPECT_EQ(aggregates[0].combo, "A");
  EXPECT_EQ(aggregates[0].shape, "s");
  EXPECT_EQ(aggregates[0].accept_ratio.count(), 2u);
  EXPECT_DOUBLE_EQ(aggregates[0].accept_ratio.mean(), 0.6);
  EXPECT_DOUBLE_EQ(report.mean_accept_ratio("B"), 1.0);
}

}  // namespace
}  // namespace rtcm
