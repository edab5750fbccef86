#include "sweep/sweep.h"

#include <utility>

#include "util/thread_pool.h"

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

std::vector<CellResult> run_sweep(const Grid& grid, const SweepParams& params,
                                  const SweepOptions& options) {
  const std::vector<Cell> cells = grid.cells();
  std::vector<CellResult> results(cells.size());

  // Shape lookup is read-only during the sweep; build it once up front.
  std::vector<const workload::WorkloadShape*> cell_shapes(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const workload::WorkloadShape* found = nullptr;
    for (const auto& spec : grid.shapes) {
      if (spec.name == cells[i].shape) {
        found = &spec.shape;
        break;
      }
    }
    cell_shapes[i] = found;
  }

  // One context struct keeps the per-job capture at two words (the
  // InlineFunction inline capacity covers it with room to spare).  Result
  // slots are written at disjoint indices and synchronized by the pool's
  // join: the sweep engine shares no other mutable state across threads.
  struct JobContext {
    const std::vector<Cell>& cells;
    const std::vector<const workload::WorkloadShape*>& shapes;
    std::vector<CellResult>& results;
    const SweepParams& params;
  };
  JobContext ctx{cells, cell_shapes, results, params};

  std::vector<ThreadPool::Job> jobs;
  jobs.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    jobs.push_back([&ctx, i] {
      if (ctx.shapes[i] == nullptr) {
        ctx.results[i].cell = ctx.cells[i];
        ctx.results[i].error = "unknown workload shape: " + ctx.cells[i].shape;
      } else {
        ctx.results[i] = run_cell(ctx.cells[i], *ctx.shapes[i], ctx.params);
      }
    });
  }

  ThreadPool pool(options.threads);
  pool.run(std::move(jobs));
  return results;
}

}  // namespace rtcm::sweep
