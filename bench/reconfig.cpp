// Mode-change bench: the online reconfiguration engine inside the sweep
// grid (BENCH_reconfig.json).
//
// Variants (the reconfiguration axis):
//   static   — control, no mode changes
//   lb-swap  — swap the LB placement policy mid-run
//   drain    — drain one replica processor mid-run, restore it later
//   storm    — strategy swap + policy swap + drain + undrain
//
// Every cell owns its ReconfigurationManager, so a cell's mode changes are
// a function of its coordinates like any other result, and the regression
// comparator gates the per-cell accept ratios, deadline misses and applied
// mode-change counts like any other sweep bench.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "config/plan_builder.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "util/flags.h"
#include "workload/generator.h"

namespace {

using namespace rtcm;

std::vector<config::ModeChange> script_for(const std::string& variant,
                                           Duration horizon) {
  // Mode-change instants scale with the horizon so short CI runs exercise
  // the same shape as full ones.
  const Time t30 = Time::epoch() + Duration(horizon.usec() * 3 / 10);
  const Time t45 = Time::epoch() + Duration(horizon.usec() * 45 / 100);
  const Time t60 = Time::epoch() + Duration(horizon.usec() * 6 / 10);
  const Time t80 = Time::epoch() + Duration(horizon.usec() * 8 / 10);
  // The imbalanced shape's last replica processor.
  const ProcessorId drained_node(4);

  std::vector<config::ModeChange> script;
  auto swap_policy = [&](Time at, const char* policy) {
    config::ModeChange change;
    change.at = at;
    change.label = std::string("lb-") + policy;
    change.lb_policy = policy;
    script.push_back(std::move(change));
  };
  auto drain = [&](Time at) {
    config::ModeChange change;
    change.at = at;
    change.label = "drain";
    change.drain = {drained_node};
    script.push_back(std::move(change));
  };
  auto undrain = [&](Time at) {
    config::ModeChange change;
    change.at = at;
    change.label = "undrain";
    change.undrain = {drained_node};
    script.push_back(std::move(change));
  };

  if (variant == "lb-swap") {
    swap_policy(t30, "primary");
    swap_policy(t60, "lowest-util");
  } else if (variant == "drain") {
    drain(t45);
    undrain(t80);
  } else if (variant == "storm") {
    config::ModeChange swap;
    swap.at = t30;
    swap.label = "go-J_N_J";
    swap.strategies = core::StrategyCombination::parse("J_N_J").value();
    script.push_back(std::move(swap));
    swap_policy(t45, "primary");
    drain(t60);
    undrain(t80);
  }
  return script;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  bench::BenchOptions options =
      bench::BenchOptions::from_flags(flags, /*default_seeds=*/10,
                                      /*default_horizon_s=*/100);
  if (!bench::check_flags(flags, bench::grid_bench_flags())) return 2;

  sweep::Grid grid;
  for (const char* combo : {"T_N_N", "T_T_N", "J_J_J"}) {
    grid.combos.push_back(core::StrategyCombination::parse(combo).value());
  }
  grid.shapes = {{"imbalanced", workload::imbalanced_workload_shape()}};
  grid.variants = {"static", "lb-swap", "drain", "storm"};

  options.params.specialize = [](const sweep::Cell& cell,
                                 scenario::ScenarioSpec& spec) {
    spec.reconfig = script_for(cell.variant, spec.horizon);
  };

  sweep::Report report = bench::run_grid("reconfig", grid, options);

  std::printf("Mode-change sweep (imbalanced workload, %d seeds)\n",
              options.seeds);
  std::printf("%-8s %-9s %14s %10s %9s %9s\n", "combo", "variant",
              "accept-ratio", "misses", "applied", "rejected");
  for (const auto& agg : report.aggregates()) {
    std::uint64_t applied = 0;
    std::uint64_t rejected = 0;
    for (const auto& cell : report.cells) {
      if (cell.cell.combo == agg.combo && cell.cell.variant == agg.variant) {
        applied += cell.reconfig_applied;
        rejected += cell.reconfig_rejected;
      }
    }
    std::printf("%-8s %-9s %7.4f %s %7.1f %9llu %9llu\n", agg.combo.c_str(),
                agg.variant.c_str(), agg.accept_ratio.mean(),
                bench::bar(agg.accept_ratio.mean(), 20).c_str(),
                agg.deadline_misses.sum(),
                static_cast<unsigned long long>(applied),
                static_cast<unsigned long long>(rejected));
  }
  return bench::finish(report, options);
}
