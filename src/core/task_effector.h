// Task Effector (TE) component (paper §5).
//
// One TE instance runs on each application processor.  When a job arrives,
// the TE puts it into a waiting queue and pushes a "Task Arrive" event to
// the central AC component; on "Accept" the held job is released (the first
// subjob is triggered on its assigned processor), on "Reject" it is dropped.
//
// The per-Task / per-Job mode (TeConfig) controls whether
// jobs of an already-admitted periodic task still go through the AC: per
// Task, once a periodic task is admitted, the TE releases its subsequent jobs
// immediately using the placement cached from the Accept event.
#pragma once

#include <map>
#include <set>

#include "ccm/component.h"
#include "core/metrics.h"
#include "events/placement.h"
#include "sched/task.h"
#include "util/slab.h"

namespace rtcm::core {

class TaskEffector final : public ccm::Component {
 public:
  TaskEffector(const sched::TaskSet& tasks, MetricsCollector* metrics);

  /// Entry point for the workload driver: a job of `task` arrives on this
  /// TE's processor now.
  void job_arrived(TaskId task, JobId job);

  /// The TE's attributes "can be set at the creation of a TE component
  /// instance and also may be modified at run-time" (paper §5).
  [[nodiscard]] bool supports_runtime_reconfiguration() const override {
    return true;
  }

  [[nodiscard]] std::size_t held_count() const { return held_.size(); }
  [[nodiscard]] std::uint64_t immediate_releases() const {
    return immediate_releases_;
  }

  /// Reconfiguration hook: a wholesale-admitted task's reservation moved, so
  /// jobs released immediately from here must use the new placement.  No-op
  /// when the task is not cached (it will pick the placement up from its
  /// next Accept event).
  void rebind_admitted_placement(TaskId task, events::Placement placement);

 protected:
  [[nodiscard]] Status on_configure(
      const ccm::ComponentConfig& config) override;
  [[nodiscard]] Status on_activate() override;

 private:
  void handle_accept(const events::AcceptPayload& payload);
  void handle_reject(const events::RejectPayload& payload);
  /// Push the stage-0 trigger (the "Release"); placement[0] may be remote.
  void release(const sched::TaskSpec& spec, JobId job, Time arrival,
               const events::Placement& placement,
               Time absolute_deadline);

  const sched::TaskSet& tasks_;
  MetricsCollector* metrics_;
  bool hold_every_job_ = true;  // per Job
  /// Jobs waiting for the AC's answer, as a set of job ids (the slot is
  /// unused): a flat table sized by the jobs in flight, no node per job.
  util::IdSlotMap held_;
  /// Periodic tasks admitted wholesale (AC per Task), with their placement.
  std::map<TaskId, events::Placement> admitted_tasks_;
  /// Tasks that have arrived at this TE before (first_arrival flag).
  std::set<TaskId> seen_tasks_;
  std::uint64_t immediate_releases_ = 0;
};

}  // namespace rtcm::core
