// Figure 5 reproduction: accepted utilization ratio of all 15 valid
// AC/IR/LB strategy combinations on §7.1 random workloads.
//
// Paper setup: 10 random task sets of 9 tasks (5 periodic + 4 aperiodic),
// 1-5 subtasks/task over 5 application processors, deadlines U[250ms, 10s],
// periods = deadlines, Poisson aperiodic arrivals, per-processor synthetic
// utilization 0.5 at simultaneous arrival, one duplicate per subtask.
//
// Expected shape (paper §7.1): enabling IR or LB raises the ratio; IR per
// job (*_J_*) significantly outperforms IR per task / none; J_J_* cluster
// on top with little difference among them; LB changes little on balanced
// workloads.
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
      "Figure 5: Accepted Utilization Ratio (random workloads, Sec 7.1)\n"
      "%d task sets x 9 tasks (5 periodic + 4 aperiodic), 5 processors,\n"
      "deadlines U[250ms,10s], per-processor synthetic utilization 0.5,\n"
      "horizon %llds + drain, one-way comm latency %lldus\n\n",
      options.seeds,
      static_cast<long long>(options.params.base.horizon.usec() / 1000000),
      static_cast<long long>(
          options.params.base.config.comm_latency.usec()));

  // The grid itself comes from the scenario registry; only the run
  // parameters (seeds, horizon) are bench-local.
  const scenario::NamedGrid entry = scenario::find_grid("fig5").value();
  const sweep::Report report =
      bench::run_grid("fig5_accept_ratio", entry.grid, options);
  const auto aggregates = report.aggregates();

  std::printf("%-7s %-7s %-7s %-44s %s\n", "combo", "mean", "stddev", "",
              "misses");
  double best = 0;
  std::string best_label;
  for (const auto& agg : aggregates) {
    if (agg.accept_ratio.mean() > best) {
      best = agg.accept_ratio.mean();
      best_label = agg.combo;
    }
  }
  for (const auto& agg : aggregates) {
    std::printf("%-7s %.4f  %.4f  |%s| %.0f%s\n", agg.combo.c_str(),
                agg.accept_ratio.mean(), agg.accept_ratio.stddev(),
                bench::bar(agg.accept_ratio.mean()).c_str(),
                agg.deadline_misses.sum(),
                agg.combo == best_label ? "   <- best" : "");
  }

  // Headline comparisons the paper calls out.
  auto mean_of = [&](const std::string& label) {
    return report.mean_accept_ratio(label);
  };
  auto avg3 = [&](const char* a, const char* b, const char* c) {
    return (mean_of(a) + mean_of(b) + mean_of(c)) / 3.0;
  };
  const double ir_none = (avg3("T_N_N", "T_N_T", "T_N_J") +
                          avg3("J_N_N", "J_N_T", "J_N_J")) / 2.0;
  const double ir_task = (avg3("T_T_N", "T_T_T", "T_T_J") +
                          avg3("J_T_N", "J_T_T", "J_T_J")) / 2.0;
  const double ir_job = avg3("J_J_N", "J_J_T", "J_J_J");
  std::printf(
      "\nIR effect (mean over combos):  none %.4f | per task %.4f | per job "
      "%.4f\n",
      ir_none, ir_task, ir_job);
  std::printf(
      "Paper check: IR per job significantly outperforms others: %s\n",
      (ir_job > ir_task && ir_job > ir_none + 0.05) ? "YES" : "NO");
  std::printf("Paper check: J_J_* combos cluster at the top: %s\n",
              (mean_of("J_J_N") >= ir_task && mean_of("J_J_T") >= ir_task &&
               mean_of("J_J_J") >= ir_task)
                  ? "YES"
                  : "NO");
  return bench::finish(report, options);
}
