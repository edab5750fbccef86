// Ablation: how much does the AUB resetting rule (idle resetting) buy, as a
// function of offered load?
//
// The paper motivates configurable IR by its overhead/pessimism trade-off
// (§4.3).  This bench quantifies the benefit side: accepted utilization
// ratio vs per-processor utilization target for IR = None / per Task /
// per Job, with AC per job and LB off so the IR effect is isolated.  The
// utilization levels become the sweep grid's workload-shape axis.
//
// Flags: --seeds=N --horizon_s=N --json_out=PATH
#include <cstdio>

#include "bench_common.h"
#include "util/strings.h"

using namespace rtcm;

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const auto options = bench::BenchOptions::from_flags(flags, 8, 60);
  if (!bench::check_flags(flags, bench::grid_bench_flags())) return 2;

  std::printf(
      "Ablation: resetting-rule benefit vs offered load (Sec 4.3)\n"
      "AC per job, LB off; random workloads; %d seeds per cell\n\n",
      options.seeds);
  std::printf("%-8s %-10s %-10s %-10s %-12s\n", "util", "IR=None", "IR=Task",
              "IR=Job", "Job-None");

  sweep::Grid grid;
  grid.combos = {core::StrategyCombination::parse("J_N_N").value(),
                 core::StrategyCombination::parse("J_T_N").value(),
                 core::StrategyCombination::parse("J_J_N").value()};
  std::vector<double> utils;
  for (double util = 0.3; util <= 0.91; util += 0.1) {
    utils.push_back(util);
    workload::WorkloadShape shape = workload::random_workload_shape();
    shape.per_processor_utilization = util;
    grid.shapes.push_back({strfmt("random-u%.2f", util), shape});
  }

  const sweep::Report report =
      bench::run_grid("ablation_resetting", grid, options);

  auto mean_at = [&](const std::string& combo, const std::string& shape) {
    for (const auto& agg : report.aggregates()) {
      if (agg.combo == combo && agg.shape == shape) {
        return agg.accept_ratio.mean();
      }
    }
    return 0.0;
  };
  for (double util : utils) {
    const std::string shape = strfmt("random-u%.2f", util);
    const double none = mean_at("J_N_N", shape);
    const double task = mean_at("J_T_N", shape);
    const double job = mean_at("J_J_N", shape);
    std::printf("%-8.2f %-10.4f %-10.4f %-10.4f %+-12.4f\n", util, none,
                task, job, job - none);
  }

  std::printf(
      "\nReading: the resetting rule's benefit grows with load until the\n"
      "admission test saturates; IR per Job dominates because completed\n"
      "periodic subjobs release the bulk of the reserved utilization.\n");
  return bench::finish(report, options);
}
