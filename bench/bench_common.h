// Shared glue between the bench binaries and the sweep engine.
//
// Every grid bench (Figures 5/6 and the ablations) declares a sweep::Grid,
// parses the shared flag set, runs the grid through the sweep driver, and
// optionally writes a BENCH_<name>.json report.  The hand-rolled
// per-bench seed loops this header used to contain live in src/sweep/ now.
#pragma once

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "scenario/library.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "util/flags.h"

namespace rtcm::bench {

/// Fail fast on flag problems: rejects flags outside `known` (typo guard —
/// `--seeeds=3` must not silently run with defaults) and prints every
/// message the typed getters recorded (malformed values).  Call it after
/// all getters ran, so their errors are included; returns true when clean.
[[nodiscard]] inline bool check_flags(const Flags& flags,
                                      const std::vector<std::string>& known) {
  flags.reject_unknown(known);
  for (const std::string& error : flags.errors()) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  return flags.errors().empty();
}

/// The flag set every grid bench shares (BenchOptions::from_flags /
/// for_named_grid), plus per-bench extras.
[[nodiscard]] inline std::vector<std::string> grid_bench_flags(
    std::initializer_list<const char*> extra = {}) {
  std::vector<std::string> known = {"seeds", "horizon_s", "aperiodic_factor",
                                    "comm_us", "json_out"};
  known.insert(known.end(), extra.begin(), extra.end());
  return known;
}

/// Options shared by every grid bench.  Flags: --seeds=N --horizon_s=N
/// --aperiodic_factor=F --comm_us=N --json_out=PATH (empty = no report
/// file).
struct BenchOptions {
  int seeds = 10;
  /// Override for every grid shape's aperiodic interarrival factor; only
  /// set when --aperiodic_factor was passed, so grids (and registry
  /// entries) keep their shapes' own factors by default.
  std::optional<double> aperiodic_factor;
  sweep::SweepParams params;
  std::string json_out;

  [[nodiscard]] static BenchOptions from_flags(const Flags& flags,
                                               int default_seeds = 10,
                                               int default_horizon_s = 100) {
    BenchOptions options;
    options.seeds =
        static_cast<int>(flags.get_int("seeds", default_seeds));
    options.params.base.horizon =
        Duration::seconds(flags.get_int("horizon_s", default_horizon_s));
    if (flags.has("aperiodic_factor")) {
      options.aperiodic_factor = flags.get_double("aperiodic_factor", 1.0);
    }
    options.params.base.config.comm_latency =
        Duration::microseconds(flags.get_int(
            "comm_us", sim::Network::kPaperOneWayDelay.usec()));
    options.json_out = flags.get_string("json_out", "");
    return options;
  }

  /// Merge command-line overrides into a scenario-library entry: the entry
  /// keeps its own defaults (horizon, arrival model, specialize hook) and
  /// flags win only when explicitly passed.
  [[nodiscard]] static BenchOptions for_named_grid(
      const Flags& flags, const scenario::NamedGrid& entry) {
    BenchOptions options;
    options.params = entry.params;
    options.seeds =
        static_cast<int>(flags.get_int("seeds", entry.grid.seeds));
    if (flags.has("horizon_s")) {
      options.params.base.horizon =
          Duration::seconds(flags.get_int("horizon_s", 100));
    }
    if (flags.has("comm_us")) {
      options.params.base.config.comm_latency = Duration::microseconds(
          flags.get_int("comm_us", sim::Network::kPaperOneWayDelay.usec()));
    }
    if (flags.has("aperiodic_factor")) {
      options.aperiodic_factor = flags.get_double("aperiodic_factor", 1.0);
    }
    options.json_out = flags.get_string("json_out", "");
    return options;
  }
};

/// Run the grid and assemble a report with provenance and a parameter
/// snapshot.  Cell order is Grid::cells() order, so the report bytes
/// (modulo wall times) are a function of the grid and options alone.
inline sweep::Report run_grid(const std::string& name,
                              const sweep::Grid& grid,
                              const BenchOptions& options) {
  sweep::Grid sized_grid = grid;
  sized_grid.seeds = options.seeds;
  if (options.aperiodic_factor.has_value()) {
    for (auto& shape : sized_grid.shapes) {
      shape.shape.aperiodic_interarrival_factor = *options.aperiodic_factor;
    }
  }

  sweep::Report report;
  report.name = name;
  report.git_sha = sweep::git_head_sha();
  report.params.set("seeds", options.seeds);
  report.params.set(
      "horizon_s",
      static_cast<std::int64_t>(options.params.base.horizon.usec() /
                                1000000));
  report.params.set(
      "drain_s",
      static_cast<std::int64_t>(options.params.base.drain.usec() / 1000000));
  report.params.set("comm_us", options.params.base.config.comm_latency.usec());
  report.params.set("aperiodic_factor",
                    options.aperiodic_factor.value_or(1.0));
  report.cells = sweep::run_sweep(sized_grid, options.params);

  for (const auto& cell : report.cells) {
    if (!cell.error.empty()) {
      std::fprintf(stderr, "cell %s/%s/%llu failed: %s\n",
                   cell.cell.combo.c_str(), cell.cell.shape.c_str(),
                   static_cast<unsigned long long>(cell.cell.seed),
                   cell.error.c_str());
    }
  }
  return report;
}

/// Finish a grid bench: write the report when --json_out was given and
/// return main()'s exit code — nonzero when any cell failed or the report
/// could not be written, so run_benches.sh (and CI behind it) can gate on
/// bench health, not just on the tables printing.
[[nodiscard]] inline int finish(const sweep::Report& report,
                                const BenchOptions& options) {
  int failed_cells = 0;
  for (const auto& cell : report.cells) {
    if (!cell.error.empty()) ++failed_cells;
  }
  if (!options.json_out.empty()) {
    if (Status status = report.write_file(options.json_out);
        !status.is_ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n",
                   options.json_out.c_str(), status.message().c_str());
      return 1;
    }
    std::printf("report written to %s\n", options.json_out.c_str());
  }
  if (failed_cells > 0) {
    std::fprintf(stderr, "%d of %zu cells failed\n", failed_cells,
                 report.cells.size());
    return 1;
  }
  return 0;
}

/// A micro bench's per-repeat timings summarized: the minimum (best
/// repeat, least scheduler noise), the median and the spread (max - min).
struct RepeatStats {
  double min = 0.0;
  double median = 0.0;
  double spread = 0.0;
};

/// Summarize `samples`; it must hold at least one repeat.
[[nodiscard]] inline RepeatStats repeat_stats(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  RepeatStats stats;
  stats.min = samples.front();
  stats.median = samples.size() % 2 == 1
                     ? samples[mid]
                     : (samples[mid - 1] + samples[mid]) / 2.0;
  stats.spread = samples.back() - samples.front();
  return stats;
}

/// ASCII bar for a ratio in [0, 1].
inline std::string bar(double ratio, int width = 40) {
  const int filled = static_cast<int>(ratio * width + 0.5);
  std::string out;
  for (int i = 0; i < width; ++i) out += i < filled ? '#' : '.';
  return out;
}

}  // namespace rtcm::bench
