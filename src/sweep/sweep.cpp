#include "sweep/sweep.h"

#include <algorithm>

namespace rtcm::sweep {

std::vector<Cell> Grid::cells() const {
  std::vector<Cell> out;
  out.reserve(combos.size() * shapes.size() * variants.size() *
              static_cast<std::size_t>(seeds > 0 ? seeds : 0));
  for (const auto& combo : combos) {
    for (const auto& shape : shapes) {
      for (const auto& variant : variants) {
        for (int seed = 1; seed <= seeds; ++seed) {
          out.push_back(Cell{combo.label(), shape.name, variant,
                             static_cast<std::uint64_t>(seed)});
        }
      }
    }
  }
  return out;
}

Result<scenario::ScenarioSpec> cell_spec(const Cell& cell,
                                         const workload::WorkloadShape& shape,
                                         const SweepParams& params) {
  const auto combo = core::StrategyCombination::parse(cell.combo);
  if (!combo.is_ok()) {
    return Result<scenario::ScenarioSpec>::error(combo.message());
  }
  scenario::ScenarioSpec spec = params.base;
  spec.name = cell.combo + "/" + cell.shape +
              (cell.variant.empty() ? "" : "/" + cell.variant) + "/seed" +
              std::to_string(cell.seed);
  spec.seed = cell.seed;
  spec.workload = scenario::WorkloadSpec::generated(shape);
  spec.config.strategies = combo.value();
  if (params.specialize) params.specialize(cell, spec);
  return spec;
}

CellResult run_cell(const Cell& cell, const workload::WorkloadShape& shape,
                    const SweepParams& params) {
  CellResult result;
  result.cell = cell;
  auto spec = cell_spec(cell, shape, params);
  if (!spec.is_ok()) {
    result.error = spec.message();
    return result;
  }
  auto run = scenario::run_scenario(spec.value());
  if (!run.is_ok()) {
    result.error = run.message();
    return result;
  }
  const scenario::ScenarioResult& outcome = run.value();
  result.accept_ratio = outcome.accept_ratio;
  result.deadline_misses = outcome.deadline_misses;
  result.aperiodic_response_ms = outcome.aperiodic_response_ms;
  result.reconfig_applied = outcome.reconfig_applied;
  result.reconfig_rejected = outcome.reconfig_rejected;
  result.wall_ms = outcome.wall_ms;
  return result;
}

std::vector<CellResult> run_sweep(const Grid& grid,
                                  const SweepParams& params) {
  const std::vector<Cell> cells = grid.cells();
  std::vector<CellResult> results;
  results.reserve(cells.size());
  for (const Cell& cell : cells) {
    const auto shape = std::find_if(
        grid.shapes.begin(), grid.shapes.end(),
        [&](const ShapeSpec& spec) { return spec.name == cell.shape; });
    if (shape == grid.shapes.end()) {
      CellResult& unknown = results.emplace_back();
      unknown.cell = cell;
      unknown.error = "unknown workload shape: " + cell.shape;
    } else {
      results.push_back(run_cell(cell, shape->shape, params));
    }
  }
  return results;
}

}  // namespace rtcm::sweep
