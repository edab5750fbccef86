// Run any named grid from the scenario registry (scenario/library.h).
//
// This is the "new workloads are one registry entry" bench: it has no
// workload knowledge of its own — it looks an entry up by name, merges
// command-line overrides into the entry's own defaults, runs the grid
// through the sweep engine and emits the standard schema-v2 report.
// scripts/run_benches.sh invokes it once per library entry that has no
// dedicated figure bench.
//
// One subcommand rides along because it shares the report plumbing:
//   --spec=FILE.json
//       run one declarative ScenarioSpec document (see scenarios/) through
//       scenario::run_scenario and print its headline metrics; with
//       --json_out the result is wrapped in a single-cell report.
//
// Flags: --grid=NAME (required; --list prints the registry)
//        --seeds=N --horizon_s=N --aperiodic_factor=F --comm_us=N
//        --json_out=PATH
//        --spec=FILE [--seed=N]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "scenario/library.h"
#include "scenario/scenario.h"

using namespace rtcm;

namespace {

Result<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Result<std::string>::error("cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// `--spec=FILE`: run one ScenarioSpec JSON document.
int run_spec_file(const Flags& flags) {
  const std::string path = flags.get_string("spec", "");
  auto text = read_text_file(path);
  if (!text.is_ok()) {
    std::fprintf(stderr, "%s\n", text.message().c_str());
    return 1;
  }
  auto parsed = scenario::spec_from_text(text.value());
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), parsed.message().c_str());
    return 1;
  }
  scenario::ScenarioSpec spec = parsed.value();
  if (flags.has("seed")) {
    spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  }
  if (flags.has("horizon_s")) {
    spec.horizon = Duration::seconds(flags.get_int("horizon_s", 100));
  }

  auto run = scenario::run_scenario(spec);
  if (!run.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), run.message().c_str());
    return 1;
  }
  const scenario::ScenarioResult& result = run.value();
  std::printf("Scenario '%s' (seed %llu, horizon %llds)\n",
              spec.name.c_str(),
              static_cast<unsigned long long>(spec.seed),
              static_cast<long long>(spec.horizon.usec() / 1000000));
  std::printf("  accept ratio          %.4f %s\n", result.accept_ratio,
              bench::bar(result.accept_ratio, 24).c_str());
  std::printf("  deadline misses       %llu\n",
              static_cast<unsigned long long>(result.deadline_misses));
  std::printf("  aperiodic response    %.3f ms\n",
              result.aperiodic_response_ms);
  std::printf("  arrivals / rejections %llu / %llu\n",
              static_cast<unsigned long long>(result.arrivals),
              static_cast<unsigned long long>(result.rejections));
  if (!spec.reconfig.empty()) {
    std::printf("  reconfig applied/rejected %llu / %llu\n",
                static_cast<unsigned long long>(result.reconfig_applied),
                static_cast<unsigned long long>(result.reconfig_rejected));
  }

  const std::string json_out = flags.get_string("json_out", "");
  if (!json_out.empty()) {
    sweep::Report report;
    report.name = "spec_" + spec.name;
    report.git_sha = sweep::git_head_sha();
    report.params.set("spec_file", path);
    report.params.set("seed", spec.seed);
    report.params.set(
        "horizon_s",
        static_cast<std::int64_t>(spec.horizon.usec() / 1000000));
    sweep::CellResult cell;
    cell.cell.combo = spec.config.strategies.label();
    cell.cell.shape = "spec";
    cell.cell.variant = spec.name;
    cell.cell.seed = spec.seed;
    cell.accept_ratio = result.accept_ratio;
    cell.deadline_misses = result.deadline_misses;
    cell.aperiodic_response_ms = result.aperiodic_response_ms;
    cell.reconfig_applied = result.reconfig_applied;
    cell.reconfig_rejected = result.reconfig_rejected;
    cell.wall_ms = result.wall_ms;
    report.cells.push_back(std::move(cell));
    if (Status status = report.write_file(json_out); !status.is_ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", json_out.c_str(),
                   status.message().c_str());
      return 1;
    }
    std::printf("report written to %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);

  if (flags.has("spec")) {
    if (!bench::check_flags(flags,
                            {"spec", "seed", "horizon_s", "json_out"})) {
      return 2;
    }
    return run_spec_file(flags);
  }

  if (flags.get_bool("list", false)) {
    std::printf("scenario grids:\n");
    for (const auto& entry : scenario::library()) {
      std::printf("  %-18s %s\n", entry.name.c_str(), entry.title.c_str());
    }
    return 0;
  }

  const std::string name = flags.get_string("grid", "");
  if (name.empty()) {
    std::fprintf(stderr,
                 "usage: bench_scenario_grids --grid=NAME [--list]\n"
                 "       bench_scenario_grids --spec=FILE.json\n");
    return 1;
  }
  auto entry = scenario::find_grid(name);
  if (!entry.is_ok()) {
    std::fprintf(stderr, "%s\n", entry.message().c_str());
    return 1;
  }

  const auto options = bench::BenchOptions::for_named_grid(flags,
                                                           entry.value());
  if (!bench::check_flags(flags, bench::grid_bench_flags({"grid", "list"}))) {
    return 2;
  }
  std::printf("Scenario grid '%s': %s\n%d seeds per cell, horizon %llds\n\n",
              entry.value().name.c_str(), entry.value().title.c_str(),
              options.seeds,
              static_cast<long long>(options.params.base.horizon.usec() /
                                     1000000));

  const sweep::Report report = bench::run_grid(
      "scenario_" + entry.value().name, entry.value().grid, options);

  std::printf("%-8s %-20s %-12s %12s %8s %9s %9s\n", "combo", "shape",
              "variant", "accept-ratio", "misses", "applied", "rejected");
  for (const auto& agg : report.aggregates()) {
    std::uint64_t applied = 0;
    std::uint64_t rejected = 0;
    for (const auto& cell : report.cells) {
      if (cell.cell.combo == agg.combo && cell.cell.shape == agg.shape &&
          cell.cell.variant == agg.variant) {
        applied += cell.reconfig_applied;
        rejected += cell.reconfig_rejected;
      }
    }
    std::printf("%-8s %-20s %-12s %7.4f %s %8.0f %9llu %9llu\n",
                agg.combo.c_str(), agg.shape.c_str(), agg.variant.c_str(),
                agg.accept_ratio.mean(),
                bench::bar(agg.accept_ratio.mean(), 16).c_str(),
                agg.deadline_misses.sum(),
                static_cast<unsigned long long>(applied),
                static_cast<unsigned long long>(rejected));
  }
  return bench::finish(report, options);
}
