#include "sim/processor.h"

#include <cassert>

namespace rtcm::sim {

Processor::Processor(Simulator& sim, ProcessorId id) : sim_(sim), id_(id) {}

void Processor::submit(WorkItem item) {
  assert(!item.execution.is_negative());
  if (!running_) {
    start(std::move(item));
    return;
  }
  if (item.priority.preempts(running_->item.priority)) {
    // Preempt: account for the burst executed so far, park the running item
    // back in the ready queue with its remaining demand, start the new one.
    // The pending completion event is handed to start(), which re-times it
    // for the preempting item instead of cancelling and re-allocating.
    const Duration ran = sim_.now() - running_->started;
    running_->item.execution -= ran;
    assert(!running_->item.execution.is_negative());
    stats_.busy_time += ran;
    ++stats_.preemptions;
    const EventHandle pending = running_->completion;
    WorkItem preempted = std::move(running_->item);
    running_.reset();
    ready_.emplace_back(next_seq_++, std::move(preempted));
    start(std::move(item), pending);
    return;
  }
  ready_.emplace_back(next_seq_++, std::move(item));
}

void Processor::start(WorkItem item, EventHandle reuse) {
  assert(!running_);
  Running r;
  r.started = sim_.now();
  r.item = std::move(item);
  const Time fire = r.started + r.item.execution;
  if (!sim_.reschedule(reuse, fire)) {
    reuse = sim_.schedule_at(fire, [this] { on_completion_event(); });
  }
  r.completion = reuse;
  running_ = std::move(r);
}

void Processor::on_completion_event() {
  assert(running_);
  stats_.busy_time += sim_.now() - running_->started;
  ++stats_.items_completed;
  WorkItem done = std::move(running_->item);
  running_.reset();
  if (done.on_complete) done.on_complete(done.id);
  // The completion callback may have submitted new work (e.g. the next
  // subjob of a chain hosted on this same processor).
  if (!running_) {
    if (auto next = pop_ready()) {
      start(std::move(*next));
    } else if (idle_callback_) {
      idle_callback_();
    }
  }
}

std::optional<WorkItem> Processor::pop_ready() {
  if (ready_.empty()) return std::nullopt;
  auto best = ready_.begin();
  for (auto it = std::next(ready_.begin()); it != ready_.end(); ++it) {
    const bool more_urgent =
        it->second.priority.preempts(best->second.priority);
    const bool same_and_earlier =
        it->second.priority == best->second.priority &&
        it->first < best->first;
    if (more_urgent || same_and_earlier) best = it;
  }
  WorkItem item = std::move(best->second);
  if (best != std::prev(ready_.end())) *best = std::move(ready_.back());
  ready_.pop_back();
  return item;
}

double Processor::busy_fraction() const {
  const Time now = sim_.now();
  if (now == Time::epoch()) return 0.0;
  Duration busy = stats_.busy_time;
  if (running_) busy += now - running_->started;
  return busy.ratio(now - Time::epoch());
}

}  // namespace rtcm::sim
