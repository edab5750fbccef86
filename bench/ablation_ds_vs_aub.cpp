// AUB vs Deferrable Server comparison (paper §2).
//
// "In our previous work, we implemented and evaluated an admission control
// service for two suitable aperiodic scheduling techniques (aperiodic
// utilization bound and deferrable server) on TAO.  Since aperiodic
// utilization bound (AUB) has a comparable performance to deferrable
// server, and requires less complex scheduling mechanisms in middleware, we
// focus exclusively on the AUB scheduling technique in this paper."
//
// This bench reruns that comparison on this implementation: random §7.1
// workloads under AUB analysis vs DS analysis (one server per processor),
// reporting accepted utilization ratio and aperiodic response times for a
// sweep of server sizes.  The analyses ride the sweep grid's variant axis.
//
// Flags: --seeds=N --horizon_s=N --json_out=PATH
#include <cstdio>

#include "bench_common.h"

using namespace rtcm;

namespace {

struct Variant {
  const char* name;
  core::AperiodicAnalysis analysis;
  Duration budget;
  Duration period;
};

const Variant kVariants[] = {
    {"AUB (paper's choice)", core::AperiodicAnalysis::kAub, Duration::zero(),
     Duration::zero()},
    {"DS 10ms/100ms (2B/P=0.2)", core::AperiodicAnalysis::kDeferrableServer,
     Duration::milliseconds(10), Duration::milliseconds(100)},
    {"DS 20ms/100ms (2B/P=0.4)", core::AperiodicAnalysis::kDeferrableServer,
     Duration::milliseconds(20), Duration::milliseconds(100)},
    {"DS 30ms/100ms (2B/P=0.6)", core::AperiodicAnalysis::kDeferrableServer,
     Duration::milliseconds(30), Duration::milliseconds(100)},
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  auto options = bench::BenchOptions::from_flags(flags, 8, 60);
  if (!bench::check_flags(flags, bench::grid_bench_flags())) return 2;
  options.params.specialize = [](const sweep::Cell& cell,
                                 scenario::ScenarioSpec& spec) {
    for (const Variant& v : kVariants) {
      if (cell.variant == v.name) {
        spec.config.analysis = v.analysis;
        spec.config.ds_server.budget = v.budget;
        spec.config.ds_server.period = v.period;
        return;
      }
    }
  };

  std::printf(
      "AUB vs Deferrable Server admission control (paper Sec 2)\n"
      "random Sec-7.1 workloads, AC per job / IR per task / LB per task,\n"
      "%d seeds per row\n\n",
      options.seeds);
  std::printf("%-26s %-10s %-22s %-8s\n", "analysis", "accept",
              "aperiodic mean resp", "misses");

  sweep::Grid grid;
  grid.combos = {core::StrategyCombination::parse("J_T_T").value()};
  grid.shapes = {{"random", workload::random_workload_shape()}};
  grid.variants.clear();
  for (const Variant& v : kVariants) grid.variants.emplace_back(v.name);

  const sweep::Report report =
      bench::run_grid("ablation_ds_vs_aub", grid, options);

  for (const Variant& v : kVariants) {
    OnlineStats ratio;
    OnlineStats response;
    OnlineStats misses;
    for (const auto& cell : report.cells) {
      if (cell.cell.variant != v.name) continue;
      ratio.add(cell.accept_ratio);
      misses.add(static_cast<double>(cell.deadline_misses));
      // Seeds whose aperiodic jobs never completed contribute no response
      // sample (matching the pre-sweep behaviour of this bench).
      if (cell.aperiodic_response_ms > 0.0) {
        response.add(cell.aperiodic_response_ms);
      }
    }
    std::printf("%-26s %-10.4f %-19.1fms %-8.0f\n", v.name, ratio.mean(),
                response.mean(), misses.sum());
  }

  std::printf(
      "\nReading: the DS server trades periodic capacity (2B/P reserved\n"
      "against the back-to-back effect) for budget-enforced aperiodic\n"
      "service, and its per-hop startup gap plus rate-limited service make\n"
      "its admission far more conservative on these heavy random workloads\n"
      "than AUB's shared synthetic-utilization ledger.  AUB admitting at\n"
      "least as much while needing no budget-enforcement mechanism in the\n"
      "middleware is exactly the paper's stated reason for focusing on AUB\n"
      "(Sec 2).\n");
  return bench::finish(report, options);
}
