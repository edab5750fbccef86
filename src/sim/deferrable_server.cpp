#include "sim/deferrable_server.h"

#include <algorithm>
#include <cassert>

namespace rtcm::sim {

DeferrableServer::DeferrableServer(Simulator& sim, Processor& cpu,
                                   DeferrableServerParams params)
    : sim_(sim), cpu_(cpu), params_(params), budget_(params.budget) {
  assert(params_.budget > Duration::zero());
  assert(params_.period >= params_.budget);
}

void DeferrableServer::start() {
  assert(!started_ && "server already started");
  started_ = true;
  sim_.schedule_after(params_.period, [this] { replenish(); });
}

void DeferrableServer::submit(std::uint64_t id, Duration execution,
                              CompletionFn on_complete) {
  assert(started_ && "start() the server before submitting work");
  assert(execution > Duration::zero());
  // Insert in admission order (ascending id).  Position 0 is exempt while a
  // chunk of it is executing.
  auto begin = queue_.begin();
  if (chunk_in_flight_ && begin != queue_.end()) ++begin;
  auto it = begin;
  while (it != queue_.end() && it->id <= id) ++it;
  queue_.insert(it, Pending{id, execution, std::move(on_complete)});
  pump();
}

void DeferrableServer::pump() {
  if (chunk_in_flight_ || queue_.empty()) return;
  if (budget_.is_zero()) {
    // Out of budget: the queue head waits for the next replenishment.
    return;
  }
  Pending& head = queue_.front();
  const Duration chunk = std::min(head.remaining, budget_);
  // Budget is committed at dispatch so a replenishment arriving while the
  // chunk executes grants a fresh full budget that is usable immediately
  // afterwards (the deferrable server's legal back-to-back behaviour).
  // Accounting at completion instead would silently void the unconsumed
  // pre-replenishment budget and under-deliver against the service bound.
  budget_ -= chunk;
  chunk_in_flight_ = true;
  ++stats_.chunks_dispatched;
  WorkItem item;
  item.id = head.id;
  item.priority = params_.priority;
  item.execution = chunk;
  item.on_complete = [this, chunk](std::uint64_t) {
    on_chunk_complete(chunk);
  };
  cpu_.submit(std::move(item));
}

void DeferrableServer::on_chunk_complete(Duration chunk) {
  assert(chunk_in_flight_);
  chunk_in_flight_ = false;
  assert(!budget_.is_negative());

  assert(!queue_.empty());
  Pending& head = queue_.front();
  head.remaining -= chunk;
  if (head.remaining.is_zero()) {
    Pending done = std::move(head);
    queue_.erase(queue_.begin());
    ++stats_.jobs_served;
    if (done.on_complete) done.on_complete(done.id);
  } else {
    // Mid-job budget exhaustion.  Re-queue by admission order: a
    // lower-id subjob may have arrived while this chunk executed and must
    // be served first, or its delay bound (computed without this job's
    // work) would be violated.
    ++stats_.budget_exhaustions;
    Pending unfinished = std::move(head);
    queue_.erase(queue_.begin());
    auto it = queue_.begin();
    while (it != queue_.end() && it->id <= unfinished.id) ++it;
    queue_.insert(it, std::move(unfinished));
  }
  pump();
}

void DeferrableServer::replenish() {
  budget_ = params_.budget;
  ++stats_.replenishments;
  sim_.schedule_after(params_.period, [this] { replenish(); });
  pump();
}

}  // namespace rtcm::sim
