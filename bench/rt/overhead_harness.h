// Figure 7/8 overhead measurement harness (§7.3).
//
// Measures the wall-clock cost of each numbered operation from the paper's
// Figure 7 against the real component code paths of this implementation:
//
//   (1) hold the task, push event        TaskEffector::job_arrived
//   (2) communication delay              loopback ping-pong (RTT / 2), or
//                                        the paper's testbed constant
//   (3) generate acceptable deployment   LB placement + AUB admission test
//       plan                             (the paper's LB returns plans that
//                                        are already acceptable)
//   (4) apply the admission test         AUB Equation (1) alone
//
// (3) and (4) run the production test, AdmissionIndex::admission_test,
// against a live SchedulingState holding the resident jobs.
//   (5) release the task                 Accept delivery -> local release
//   (6) release the duplicate task       Accept delivery -> remote release
//   (7) report completed subtask         IR idle-detector report
//   (8) update synthetic utilization     IdleReset delivery -> ledger update
//
// and composes the same rows as the paper's Figure 8:
//
//   AC without LB                 (1+2+4+2+5)
//   AC with LB (no re-allocation) (1+2+3+2+5)
//   AC with LB (re-allocation)    (1+2+3+2+6)
//   LB (no re-allocation)         (1+2+3+2+5)
//   LB (re-allocation)            (1+2+3+2+6)
//   IR (on AC side)               (8)
//   IR (other part)               (7+2)
//   Communication Delay           (2)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.h"

namespace rtcm::rt {

struct OverheadParams {
  /// Iterations per operation (the paper used 1000 for the ping-pong).
  std::size_t iterations = 1000;
  std::uint64_t seed = 42;
  /// Jobs kept in the admission controller's current set while measuring —
  /// the admission test's cost scales with it.
  std::size_t resident_jobs = 12;
  /// Completed subjobs reported per idle-reset event.
  std::size_t subjobs_per_report = 3;
};

struct OverheadReport {
  // Per-operation wall times, microseconds.
  Samples op1_hold_push;
  Samples op3_plan;
  Samples op4_admission_test;
  Samples op5_release_local;
  Samples op6_release_remote;
  Samples op7_ir_report;
  Samples op8_update_utilization;
  Samples comm_one_way;  // measured loopback (operation 2)

  struct Row {
    std::string name;
    std::string formula;
    double mean_us = 0;
    double max_us = 0;
  };

  /// Compose the Figure 8 rows with the given communication delay
  /// (mean/max, microseconds) substituted for operation (2).
  [[nodiscard]] std::vector<Row> figure8_rows(double comm_mean_us,
                                              double comm_max_us) const;

  /// Rows with the measured loopback delay.
  [[nodiscard]] std::vector<Row> figure8_rows_measured() const {
    return figure8_rows(comm_one_way.mean(), comm_one_way.max());
  }
};

/// Run every measurement.  Builds a fresh middleware deployment (3
/// application processors + task manager, §7.3 workload shape) and drives
/// the real component entry points under a wall clock.
[[nodiscard]] OverheadReport measure_overheads(const OverheadParams& params);

}  // namespace rtcm::rt
