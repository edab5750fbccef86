// The benchmark's four named workloads.
//
// A workload is a set of (combo, variant) groups over one workload shape.
// One *pass* runs every group on seeds S .. S+seeds_per_pass-1, where S is
// the driver's --seed, wrapped into 1..seed_pool; the driver repeats the
// pass until its time budget is spent, so every pass of a run simulates
// exactly the same scenarios.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "sweep/sweep.h"
#include "util/result.h"

namespace rtcm::e2e {

struct Workload {
  std::string name;
  std::vector<std::string> combos;
  std::vector<std::string> variants = {""};
  sweep::ShapeSpec shape;
  sweep::SweepParams params;
  int seeds_per_pass = 1;
  /// Scenario seeds 1..seed_pool were scanned for deadline misses (README.md),
  /// so a pass draws its seeds only from them, whatever --seed is.
  std::uint64_t seed_pool = 0;
};

/// One scenario of a pass: the fully specialized spec of one grid cell.
struct PassScenario {
  scenario::ScenarioSpec spec;
  /// First seed of its (combo, variant) group: spans are recorded for it
  /// and it is cross-checked against scenario::run_scenario.
  bool group_head = false;
  /// One of the cells the scan found missing deadlines on the library as it
  /// stands; its misses are reported instead of failed.
  bool known_misses = false;
};

/// The named workload; the error lists the available names.
[[nodiscard]] Result<Workload> find_workload(const std::string& name);

/// Every scenario of one pass, seed-major so any prefix is a cross-section
/// of the groups.
[[nodiscard]] Result<std::vector<PassScenario>> pass_scenarios(
    const Workload& workload, std::uint64_t first_seed);

}  // namespace rtcm::e2e
