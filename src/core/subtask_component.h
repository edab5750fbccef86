// First/Intermediate (F/I) and Last Subtask components (paper §5).
//
// Each instance executes one stage of one end-to-end task on one processor,
// at a fixed EDMS priority, inside a prioritized dispatching "thread" (a
// work item on the simulated preemptive processor).  The F/I variant has an
// extra "Trigger" event-source port that releases the next stage; the Last
// variant instead reports end-to-end completion.  Instances exist on the
// stage's primary processor and on every replica processor (criterion C3) —
// the Trigger payload's placement decides which instance actually runs a
// given job.
//
// The task and stage come from the instance's identity; SubtaskConfig holds
// the stage's execution time, the task's EDMS priority (smaller = more
// urgent) and the IR mode — whether subjob completions are reported to the
// local Idle Resetter (per Task, periodic subjob completions are not
// reported; §5).
#pragma once

#include <cstdint>

#include "ccm/component.h"
#include "core/protocols.h"
#include "core/strategies.h"
#include "sched/task.h"
#include "util/priority.h"

namespace rtcm::core {

class SubtaskComponentBase : public ccm::Component {
 public:
  [[nodiscard]] TaskId task() const { return id().task; }
  [[nodiscard]] std::size_t stage() const { return id().stage; }
  [[nodiscard]] Priority priority() const { return priority_; }
  [[nodiscard]] std::uint64_t subjobs_executed() const {
    return subjobs_executed_;
  }
  /// Triggers that arrived while the instance was quiesced (passivated).
  /// Always zero when the reconfiguration protocol is honoured.
  [[nodiscard]] std::uint64_t triggers_dropped() const {
    return triggers_dropped_;
  }

  /// Receptacle "Complete": the local CompletionSink (the node's IR).
  [[nodiscard]] Status connect(ccm::Port port,
                               ccm::Component& provider) override;

  /// Mode changes may retune execution budgets / IR modes of live stages.
  [[nodiscard]] bool supports_runtime_reconfiguration() const override {
    return true;
  }

 protected:
  SubtaskComponentBase(ccm::ComponentKind kind, const sched::TaskSet& tasks);

  [[nodiscard]] Status on_configure(
      const ccm::ComponentConfig& config) override;
  [[nodiscard]] Status on_activate() override;

  /// Stage-specific follow-up after the subjob's execution completes.
  virtual void on_subjob_finished(const events::TriggerPayload& payload) = 0;

  const sched::TaskSet& tasks_;

 private:
  void handle_trigger(const events::TriggerPayload& payload);
  void finish(const events::TriggerPayload& payload);

  Duration execution_ = Duration::zero();
  Priority priority_;
  IrStrategy ir_mode_ = IrStrategy::kNone;
  CompletionSink* completion_sink_ = nullptr;
  std::uint64_t subjobs_executed_ = 0;
  std::uint64_t triggers_dropped_ = 0;
};

/// Executes a non-final stage; publishes "Trigger" for the next stage.
class FirstIntermediateSubtask final : public SubtaskComponentBase {
 public:
  explicit FirstIntermediateSubtask(const sched::TaskSet& tasks);

 protected:
  void on_subjob_finished(const events::TriggerPayload& payload) override;
};

/// Executes the final stage; reports end-to-end completion.
class LastSubtask final : public SubtaskComponentBase {
 public:
  explicit LastSubtask(const sched::TaskSet& tasks);

  void set_completion_listener(JobCompletionListener* listener) {
    listener_ = listener;
  }

 protected:
  void on_subjob_finished(const events::TriggerPayload& payload) override;

 private:
  JobCompletionListener* listener_ = nullptr;
};

}  // namespace rtcm::core
