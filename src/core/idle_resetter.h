// Idle Resetter (IR) component (paper §4.3, §5).
//
// One IR instance runs on each application processor.  Subtask components
// call its "Complete" facet when subjobs finish.  Whenever the processor
// goes idle — the moment the paper's lowest-priority "idle detector" thread
// would run — the IR pushes an "Idle Resetting" event listing the completed,
// not-yet-reported subjobs whose deadlines have not expired, so the AC can
// remove their synthetic-utilization contributions (the AUB resetting rule).
//
// Strategies (IrConfig):
//   None     — resetting disabled; Complete calls are ignored.
//   per Task — only completed aperiodic subjobs are recorded and reported.
//   per Job  — completed aperiodic and periodic subjobs are reported.
#pragma once

#include <vector>

#include "ccm/component.h"
#include "core/protocols.h"
#include "core/strategies.h"

namespace rtcm::core {

class IdleResetter final : public ccm::Component, public CompletionSink {
 public:
  IdleResetter();

  // Facet "Complete": this component's CompletionSink.

  // CompletionSink
  void subjob_complete(const events::SubjobRef& ref, sched::TaskKind kind,
                       Time absolute_deadline) override;

  /// Run the idle-detector path now, as if the processor just went idle.
  /// Exists for the overhead harness and tests; production reports flow
  /// through the processor's idle callback.
  void force_idle_report() { on_processor_idle(); }

  [[nodiscard]] IrStrategy strategy() const { return strategy_; }

  /// The IR strategy only gates which completions are recorded/reported, so
  /// it can be swapped live by the reconfiguration engine.
  [[nodiscard]] bool supports_runtime_reconfiguration() const override {
    return true;
  }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t reports_pushed() const {
    return reports_pushed_;
  }

 protected:
  [[nodiscard]] Status on_configure(
      const ccm::ComponentConfig& config) override;
  [[nodiscard]] Status on_activate() override;

 private:
  void on_processor_idle();

  struct Pending {
    events::SubjobRef ref;
    Time absolute_deadline;
  };

  IrStrategy strategy_ = IrStrategy::kNone;
  std::vector<Pending> pending_;
  std::uint64_t reports_pushed_ = 0;
};

}  // namespace rtcm::core
