// Run metrics, including the paper's headline measurement.
//
// "The performance metric we used in these evaluations is the accepted
// utilization ratio, i.e., the total utilization of jobs actually released
// divided by the total utilization of all jobs arriving." (paper §7.1)
// A job's utilization is the sum of its subtask utilizations C_i,j / D_i.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/protocols.h"
#include "sched/task.h"
#include "util/ids.h"
#include "util/slab.h"
#include "util/stats.h"
#include "util/time.h"

namespace rtcm::core {

struct TaskMetrics {
  std::uint64_t arrivals = 0;
  std::uint64_t releases = 0;
  std::uint64_t rejections = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadline_misses = 0;
  double arrived_utilization = 0.0;
  double released_utilization = 0.0;
  /// End-to-end response times (arrival -> completion), milliseconds.
  OnlineStats response_ms;
};

class MetricsCollector final : public JobCompletionListener {
 public:
  void on_arrival(const sched::TaskSpec& spec, JobId job, Time when);
  void on_release(const sched::TaskSpec& spec, JobId job, Time when);
  void on_rejection(const sched::TaskSpec& spec, JobId job, Time when);
  void on_idle_reset(std::size_t subjobs_reset);

  // JobCompletionListener: called by Last Subtask components.
  void job_completed(TaskId task, JobId job, Time released, Time completed,
                     Time absolute_deadline) override;

  /// The paper's metric; 1.0 when nothing has arrived yet.
  [[nodiscard]] double accepted_utilization_ratio() const;

  [[nodiscard]] const TaskMetrics& total() const { return total_; }
  [[nodiscard]] const std::map<TaskId, TaskMetrics>& per_task() const {
    return per_task_;
  }
  [[nodiscard]] std::uint64_t idle_resets() const { return idle_resets_; }
  [[nodiscard]] std::uint64_t subjobs_reset() const { return subjobs_reset_; }

  /// Multi-line human-readable summary.
  [[nodiscard]] std::string render() const;

 private:
  /// Forget `job`'s arrival time; returns it, or nullopt if none is held.
  std::optional<Time> take_arrival(JobId job);

  /// Arrival times of the jobs in flight, so completions can compute
  /// response times without threading arrival timestamps through the whole
  /// pipeline.  Flat rows (swap-with-last removal) keyed by an id table:
  /// memory follows the jobs in flight, with no node per job.
  util::IdSlotMap arrival_index_;
  std::vector<JobId> arrival_jobs_;
  std::vector<Time> arrival_times_;
  std::map<TaskId, TaskMetrics> per_task_;
  TaskMetrics total_;
  std::uint64_t idle_resets_ = 0;
  std::uint64_t subjobs_reset_ = 0;
};

}  // namespace rtcm::core
