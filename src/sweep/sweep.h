// Scenario-sweep engine.
//
// The paper's evaluation is a grid of (strategy combination x workload
// shape x seed) experiments (Figures 5/6 run 15 combinations x 10 seeds
// each).  This engine models that grid explicitly and runs it as a plain
// loop in Grid::cells() order: every cell owns its own Rng, workload,
// Simulator and SystemRuntime, so a cell's result is a pure function of its
// coordinates — the determinism contract (same seed => byte-identical
// trace) extends to "same grid => byte-identical report".
//
// Since the Scenario API landed, a cell is just coordinates over a base
// scenario::ScenarioSpec: cell_spec() folds (combo, shape, variant, seed)
// plus the `specialize` hook into one declarative spec, and run_cell() is a
// thin wrapper over scenario::run_scenario.  Cells carry an optional
// free-form `variant` coordinate for ablations that sweep something other
// than the strategy combination (LB placement policy, deferrable-server
// sizing, reconfiguration scripts).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/strategies.h"
#include "scenario/scenario.h"
#include "util/result.h"
#include "util/time.h"
#include "workload/generator.h"

namespace rtcm::sweep {

/// Coordinates of one experiment in the grid.
struct Cell {
  std::string combo;    ///< Strategy label, e.g. "J_T_N".
  std::string shape;    ///< Workload shape name, e.g. "random".
  std::string variant;  ///< Ablation dimension; empty for plain sweeps.
  std::uint64_t seed = 1;
};

/// Measured outcome of one cell.
struct CellResult {
  Cell cell;
  double accept_ratio = 0.0;
  std::uint64_t deadline_misses = 0;
  /// Mean end-to-end response over the aperiodic tasks' per-task means.
  double aperiodic_response_ms = 0.0;
  /// Host wall time of the cell simulation (non-deterministic; excluded
  /// from the deterministic report form).
  double wall_ms = 0.0;
  /// Mode changes applied / rejected by the cell's reconfiguration script
  /// (zero for cells without one).
  std::uint64_t reconfig_applied = 0;
  std::uint64_t reconfig_rejected = 0;
  /// Non-empty when the cell failed to assemble; metrics are zero then.
  std::string error;
};

/// A named workload shape (the grid's second axis).
struct ShapeSpec {
  std::string name;
  workload::WorkloadShape shape;
};

/// The experiment grid: combos x shapes x variants x seeds 1..N.
struct Grid {
  std::vector<core::StrategyCombination> combos;
  std::vector<ShapeSpec> shapes;
  /// Ablation variants; leave as the default single empty entry for plain
  /// (combo x shape x seed) sweeps.
  std::vector<std::string> variants = {""};
  int seeds = 10;

  /// All cells in canonical order: combo-major, then shape, variant, seed.
  /// This order is the report's cell order.
  [[nodiscard]] std::vector<Cell> cells() const;
};

/// Parameters shared by every cell: a base ScenarioSpec template plus a
/// per-cell transform.  A grid is exactly "a set of coordinates mapped onto
/// ScenarioSpecs": the cell's combo/shape/seed overwrite the base spec's
/// strategies/workload/seed, then `specialize` translates the remaining
/// coordinates (the variant axis, reconfiguration scripts) into spec edits.
struct SweepParams {
  /// Template for every cell: horizon/drain, SystemConfig knobs and the
  /// arrival model.  Its name/seed/workload/strategies are overwritten from
  /// the cell coordinates by cell_spec().
  scenario::ScenarioSpec base;
  /// Maps the cell coordinates onto the final spec; runs after the
  /// coordinates are applied.
  std::function<void(const Cell&, scenario::ScenarioSpec&)> specialize;
};

/// The fully specialized spec a cell runs: base + coordinates + specialize.
/// Errors when the cell's combo label does not parse.  Exposed so tests can
/// serialize per-cell specs (the JSON-round-trip-then-rerun contract).
[[nodiscard]] Result<scenario::ScenarioSpec> cell_spec(
    const Cell& cell, const workload::WorkloadShape& shape,
    const SweepParams& params);

/// Run one cell in isolation: fresh Rng, workload, runtime, simulator.
[[nodiscard]] CellResult run_cell(const Cell& cell,
                                  const workload::WorkloadShape& shape,
                                  const SweepParams& params);

/// Run every cell of the grid, one after another.  Results are in
/// Grid::cells() order.
[[nodiscard]] std::vector<CellResult> run_sweep(const Grid& grid,
                                                const SweepParams& params);

}  // namespace rtcm::sweep
