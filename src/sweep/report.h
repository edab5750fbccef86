// Structured, machine-readable bench reports (BENCH_<name>.json).
//
// Schema (version 2):
//   {
//     "schema_version": 2,
//     "name": "fig5_accept_ratio",
//     "git_sha": "<HEAD sha or 'unknown'>",
//     "params": { ... free-form run parameters ... },
//     "cells": [
//       {"combo": "T_N_N", "shape": "random", "variant": "", "seed": 1,
//        "accept_ratio": 0.7, "deadline_misses": 0,
//        "aperiodic_response_ms": 12.5, "wall_ms": 3.2}, ...
//     ],
//     "aggregates": [
//       {"combo": "T_N_N", "shape": "random", "variant": "", "cells": 10,
//        "accept_ratio": {"mean": .., "stddev": .., "min": .., "max": ..},
//        "deadline_misses": {"sum": .., "mean": ..},
//        "wall_ms": {"sum": .., "mean": ..}}, ...
//     ]
//   }
//
// Version 2 once added optional provenance keys for grids split across
// machines.  Every report is now written by one whole-grid run, so no writer
// emits them; from_json ignores them and still accepts version-1 documents.
// A version-2 report differs from a version-1 one only in the
// schema_version field.
//
// Two renderings exist: to_json() is the full report (what run_benches.sh
// collects and check_bench_regression.py compares), and deterministic_dump()
// drops the non-reproducible / provenance fields (git_sha, wall times) so
// tests can assert byte-identity between runs.
#pragma once

#include <string>
#include <vector>

#include "sweep/sweep.h"
#include "util/json.h"
#include "util/result.h"
#include "util/stats.h"

namespace rtcm::sweep {

inline constexpr int kReportSchemaVersion = 2;
/// Oldest schema from_json still accepts.
inline constexpr int kMinReportSchemaVersion = 1;

/// Per-(combo, shape, variant) statistics over seeds, in first-cell order.
struct Aggregate {
  std::string combo;
  std::string shape;
  std::string variant;
  OnlineStats accept_ratio;
  OnlineStats deadline_misses;
  OnlineStats aperiodic_response_ms;
  OnlineStats wall_ms;
};

struct Report {
  std::string name;
  int schema_version = kReportSchemaVersion;
  std::string git_sha;
  /// Free-form run parameters recorded for reproducibility (seeds, horizon,
  /// flags).
  json::Value params = json::Value::object();
  std::vector<CellResult> cells;

  /// Group cells by (combo, shape, variant), preserving cell order.
  [[nodiscard]] std::vector<Aggregate> aggregates() const;

  /// Convenience: mean accept ratio of the aggregate matching `combo` (and
  /// optionally `variant`); 0 when absent.
  [[nodiscard]] double mean_accept_ratio(const std::string& combo,
                                         const std::string& variant = "") const;

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static Result<Report> from_json(const json::Value& v);

  /// Canonical serialization with git_sha and wall times omitted: equal
  /// bytes if and only if the sweep results are equal.
  [[nodiscard]] std::string deterministic_dump() const;

  /// Write to_json().dump() to `path`.
  [[nodiscard]] Status write_file(const std::string& path) const;
};

/// HEAD commit for report provenance: $RTCM_GIT_SHA when set (CI sets it),
/// otherwise `git rev-parse HEAD`, otherwise "unknown".
[[nodiscard]] std::string git_head_sha();

}  // namespace rtcm::sweep
