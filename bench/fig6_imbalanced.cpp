// Figure 6 reproduction: LB strategy comparison on §7.2 imbalanced
// workloads.
//
// Paper setup: 5 application processors split into a group of 3 hosting all
// primary subtasks (synthetic utilization 0.7 each at simultaneous arrival)
// and a group of 2 hosting all duplicates; 1-3 subtasks per task.  The 15
// valid combinations are shown in 5 groups of 3 bars; within each group only
// the LB strategy changes (N -> T -> J).
//
// Expected shape (paper §7.2): LB per task significantly improves on no LB;
// LB per task vs per job differ little.
//
// Flags: --seeds=N --horizon_s=N --aperiodic_factor=F --comm_us=N
//        --json_out=PATH
#include <cstdio>

#include "bench_common.h"

using namespace rtcm;

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const auto options = bench::BenchOptions::from_flags(flags);
  if (!bench::check_flags(flags, bench::grid_bench_flags())) return 2;

  std::printf(
      "Figure 6: LB Strategy Comparison (imbalanced workloads, Sec 7.2)\n"
      "%d task sets, 3 loaded processors (0.7 each) + 2 replica processors,\n"
      "1-3 subtasks/task, horizon %llds\n\n",
      options.seeds,
      static_cast<long long>(options.params.base.horizon.usec() / 1000000));

  const scenario::NamedGrid entry = scenario::find_grid("fig6").value();
  const sweep::Report report =
      bench::run_grid("fig6_imbalanced", entry.grid, options);

  auto mean_of = [&](const std::string& label) {
    return report.mean_accept_ratio(label);
  };

  std::printf("%-7s %-7s %-44s\n", "combo", "mean", "");
  for (const auto& agg : report.aggregates()) {
    std::printf("%-7s %.4f  |%s|\n", agg.combo.c_str(),
                agg.accept_ratio.mean(),
                bench::bar(agg.accept_ratio.mean()).c_str());
  }

  // Per-group LB effect: hold (AC, IR) fixed, vary LB none -> task -> job.
  std::printf("\n%-8s %-8s %-8s %-8s %-12s %-12s\n", "group", "LB=N", "LB=T",
              "LB=J", "T-N gain", "J-T delta");
  const char* groups[5] = {"T_N", "T_T", "J_N", "J_T", "J_J"};
  bool lb_task_wins = true;
  bool per_job_close = true;
  for (const char* g : groups) {
    const std::string base(g);
    const double n = mean_of(base + "_N");
    const double t = mean_of(base + "_T");
    const double j = mean_of(base + "_J");
    std::printf("%-8s %.4f   %.4f   %.4f   %+.4f      %+.4f\n", g, n, t, j,
                t - n, j - t);
    if (t <= n + 0.05) lb_task_wins = false;
    if (j < t - 0.15 || j > t + 0.15) per_job_close = false;
  }
  std::printf(
      "\nPaper check: LB per task significantly improves over no LB: %s\n",
      lb_task_wins ? "YES" : "NO");
  std::printf(
      "Paper check: not much difference between LB per task and per job: "
      "%s\n",
      per_job_close ? "YES" : "NO");
  return bench::finish(report, options);
}
