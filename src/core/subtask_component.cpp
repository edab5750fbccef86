#include "core/subtask_component.h"

#include <cassert>

#include "ccm/container.h"
#include "sim/deferrable_server.h"
#include "sim/trace.h"

namespace rtcm::core {

using events::EventType;
using events::TriggerPayload;

SubtaskComponentBase::SubtaskComponentBase(ccm::ComponentKind kind,
                                           const sched::TaskSet& tasks)
    : Component(kind), tasks_(tasks) {}

Status SubtaskComponentBase::connect(ccm::Port port,
                                     ccm::Component& provider) {
  if (port == ccm::Port::kComplete) {
    return bind(completion_sink_, port, provider);
  }
  return Component::connect(port, provider);
}

Status SubtaskComponentBase::on_configure(const ccm::ComponentConfig& config) {
  const auto& subtask = std::get<ccm::SubtaskConfig>(config);
  if (subtask.execution <= Duration::zero()) {
    return Status::error("execution time must be positive");
  }
  execution_ = subtask.execution;
  priority_ = subtask.priority;
  ir_mode_ = subtask.ir_mode;
  return Status::ok();
}

Status SubtaskComponentBase::on_activate() {
  if (execution_ <= Duration::zero()) {
    return Status::error("subtask component activated before configuration");
  }
  // The wildcard stage cannot be named by a subscription key.
  if (id().stage >= events::SubscriptionKey::kAnyStage) {
    return Status::error("Stage must be >= 0 and < 2^32 - 1");
  }
  // Triggers of this stage of this task, addressed to this processor by
  // the payload's placement[stage].
  context().local_channel().subscribe(
      events::SubscriptionKey(EventType::kTrigger)
          .for_task(task())
          .for_stage(id().stage)
          .to_this_processor(),
      [this](const events::Event& e) {
        handle_trigger(events::payload_as<TriggerPayload>(e));
      });
  return Status::ok();
}

void SubtaskComponentBase::handle_trigger(const TriggerPayload& payload) {
  // A quiesced (passivated) instance keeps its channel subscription but must
  // not execute work.  The reconfiguration protocol never routes triggers to
  // a drained host, so a drop here would surface as a conservation failure
  // (releases != completions) in the property tests rather than a crash.
  if (state() != ccm::LifecycleState::kActive) {
    ++triggers_dropped_;
    return;
  }
  const std::uint64_t id =
      (static_cast<std::uint64_t>(payload.job.value()) << 8) |
      static_cast<std::uint64_t>(stage() & 0xff);
  // Non-const on purpose: a const by-copy capture would make the lambda's
  // member const, forcing delegate moves through the allocating copy
  // constructor and failing CompletionFn's inline-storage requirements.
  TriggerPayload captured = payload;

  // Under DS analysis, aperiodic subjobs execute through this processor's
  // deferrable server (budget-limited, above all EDMS priorities).
  const sched::TaskSpec* spec = tasks_.find(task());
  assert(spec);
  auto on_done = [this, captured](std::uint64_t) { finish(captured); };
  // The per-subjob completion delegate; growing events::TriggerPayload past
  // CompletionFn's inline capacity would silently put a heap allocation
  // back on every dispatched subjob.
  static_assert(sim::CompletionFn::fits_inline<decltype(on_done)>);
  if (spec->kind == sched::TaskKind::kAperiodic &&
      context().aperiodic_server != nullptr) {
    context().aperiodic_server->submit(id, execution_, std::move(on_done));
    return;
  }

  // One dispatching thread per component, at the configured EDMS priority.
  sim::WorkItem item;
  item.id = id;
  item.priority = priority_;
  item.execution = execution_;
  item.on_complete = std::move(on_done);
  context().cpu.submit(std::move(item));
}

void SubtaskComponentBase::finish(const TriggerPayload& payload) {
  ++subjobs_executed_;
  const Time now = context().sim.now();
  context().trace.record_lazy(now, sim::TraceKind::kSubjobComplete,
                              context().processor, task(), payload.job,
                              [this] {
                                return "stage " + std::to_string(stage());
                              });

  const sched::TaskSpec* spec = tasks_.find(task());
  assert(spec);
  const bool notify_ir =
      completion_sink_ != nullptr &&
      (ir_mode_ == IrStrategy::kPerJob ||
       (ir_mode_ == IrStrategy::kPerTask &&
        spec->kind == sched::TaskKind::kAperiodic));
  if (notify_ir) {
    completion_sink_->subjob_complete(
        events::SubjobRef{task(), payload.job, stage()}, spec->kind,
        payload.absolute_deadline);
  }

  on_subjob_finished(payload);
}

FirstIntermediateSubtask::FirstIntermediateSubtask(const sched::TaskSet& tasks)
    : SubtaskComponentBase(ccm::ComponentKind::kSubtaskFI, tasks) {}

void FirstIntermediateSubtask::on_subjob_finished(
    const TriggerPayload& payload) {
  assert(stage() + 1 < payload.placement.size() &&
         "F/I subtask must not be the last stage");
  TriggerPayload next = payload;
  next.stage = stage() + 1;
  context().federation.push(context().processor, std::move(next));
}

LastSubtask::LastSubtask(const sched::TaskSet& tasks)
    : SubtaskComponentBase(ccm::ComponentKind::kSubtaskLast, tasks) {}

void LastSubtask::on_subjob_finished(const TriggerPayload& payload) {
  const Time now = context().sim.now();
  context().trace.record({now, sim::TraceKind::kJobComplete,
                          context().processor, task(), payload.job, ""});
  if (now > payload.absolute_deadline) {
    context().trace.record_lazy(
        now, sim::TraceKind::kDeadlineMiss, context().processor, task(),
        payload.job, [&] {
          return "late by " + (now - payload.absolute_deadline).to_string();
        });
  }
  if (listener_ != nullptr) {
    listener_->job_completed(task(), payload.job, payload.release_time, now,
                             payload.absolute_deadline);
  }
}

}  // namespace rtcm::core
