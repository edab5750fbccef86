// Service strategies and their valid combinations (paper §4, Figure 2).
//
// The three configurable services each support three strategies:
//   Admission Control: per Task | per Job            (two strategies)
//   Idle Resetting:    None | per Task | per Job
//   Load Balancing:    None | per Task | per Job
// yielding 2*3*3 = 18 combinations.  "AC per Task with IR per Job" is
// contradictory — per-job idle resetting removes completed periodic subjobs'
// synthetic utilization, while per-task admission control must keep it
// reserved — so 3 combinations are invalid and 15 remain (paper §4.5).
//
// Combinations are written the way the paper labels its figures: a tuple
// like "T_N_J" = AC per Task, IR None, LB per Job.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "util/result.h"

namespace rtcm::core {

enum class AcStrategy { kPerTask, kPerJob };
enum class IrStrategy { kNone, kPerTask, kPerJob };
enum class LbStrategy { kNone, kPerTask, kPerJob };

[[nodiscard]] const char* to_string(AcStrategy s);
[[nodiscard]] const char* to_string(IrStrategy s);
[[nodiscard]] const char* to_string(LbStrategy s);

/// Single-letter figure labels: N / T / J.
[[nodiscard]] char label(AcStrategy s);
[[nodiscard]] char label(IrStrategy s);
[[nodiscard]] char label(LbStrategy s);

/// Which aperiodic schedulability analysis the AC runs (paper §2: AUB or
/// deferrable server; AUB is the paper's focus, DS the referenced
/// alternative from the authors' prior work).
enum class AperiodicAnalysis { kAub, kDeferrableServer };

/// Whether a TE releases the jobs of an admitted periodic task at once
/// (per Task) or holds every job until the AC answers (per Job).
enum class TeMode { kPerTask, kPerJob };

struct StrategyCombination {
  AcStrategy ac = AcStrategy::kPerTask;
  IrStrategy ir = IrStrategy::kNone;
  LbStrategy lb = LbStrategy::kNone;

  [[nodiscard]] bool operator==(const StrategyCombination&) const = default;

  /// True unless the combination is the contradictory AC-per-Task /
  /// IR-per-Job pairing.
  [[nodiscard]] bool valid() const;

  /// Reason a combination is invalid; empty for valid ones.
  [[nodiscard]] std::string invalid_reason() const;

  /// Paper-style label, e.g. "J_T_N".
  [[nodiscard]] std::string label() const;

  /// Parse a paper-style label ("T_N_J", case-insensitive).
  [[nodiscard]] static Result<StrategyCombination> parse(
      const std::string& label);
};

/// Per Task exactly when admitted periodic tasks bypass the AC round trip
/// (AC per Task and LB not per Job).
[[nodiscard]] TeMode te_mode(const StrategyCombination& s);

/// All 18 combinations, AC-major in the order of the paper's figures
/// (T_N_N, T_N_T, T_N_J, T_T_N, ..., J_J_J).
[[nodiscard]] std::vector<StrategyCombination> all_combinations();

/// The 15 valid combinations, in the same order.
[[nodiscard]] std::vector<StrategyCombination> valid_combinations();

}  // namespace rtcm::core
