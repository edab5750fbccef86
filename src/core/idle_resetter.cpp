#include "core/idle_resetter.h"

#include <algorithm>

#include "ccm/container.h"
#include "sim/trace.h"

namespace rtcm::core {

using events::EventType;
using events::IdleResetPayload;

IdleResetter::IdleResetter() : Component(ccm::ComponentKind::kIdleResetter) {}

Status IdleResetter::on_configure(const ccm::ComponentConfig& config) {
  strategy_ = std::get<ccm::IrConfig>(config).strategy;
  return Status::ok();
}

Status IdleResetter::on_activate() {
  context().cpu.set_idle_callback([this] { on_processor_idle(); });
  return Status::ok();
}

void IdleResetter::subjob_complete(const events::SubjobRef& ref,
                                   sched::TaskKind kind,
                                   Time absolute_deadline) {
  switch (strategy_) {
    case IrStrategy::kNone:
      return;
    case IrStrategy::kPerTask:
      // Periodic contributions stay reserved; only aperiodic subjobs can be
      // reset early.
      if (kind == sched::TaskKind::kPeriodic) return;
      break;
    case IrStrategy::kPerJob:
      break;
  }
  pending_.push_back(Pending{ref, absolute_deadline});
}

void IdleResetter::on_processor_idle() {
  if (strategy_ == IrStrategy::kNone) return;
  const Time now = context().sim.now();
  context().trace.record({now, sim::TraceKind::kIdle, context().processor,
                          TaskId(), JobId(), ""});

  // Report only newly completed subjobs whose deadlines have not expired;
  // everything in `pending_` is either reported now or stale, so the list
  // drains completely (the paper's "avoid reporting repeatedly" rule).
  const auto live = std::count_if(
      pending_.begin(), pending_.end(),
      [now](const Pending& p) { return p.absolute_deadline > now; });
  if (live == 0) {
    pending_.clear();
    return;
  }
  // The report's list is the one allocation an idle report makes.
  IdleResetPayload payload;
  payload.processor = context().processor;
  payload.completed.reserve(static_cast<std::size_t>(live));
  for (const Pending& p : pending_) {
    if (p.absolute_deadline > now) payload.completed.push_back(p.ref);
  }
  pending_.clear();

  ++reports_pushed_;
  context().federation.push(context().processor, std::move(payload));
}

}  // namespace rtcm::core
