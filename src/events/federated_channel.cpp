#include "events/federated_channel.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rtcm::events {

namespace {

bool precedes(const std::unique_ptr<LocalEventChannel>& channel,
              ProcessorId processor) {
  return channel->processor() < processor;
}

bool by_processor(const LocalEventChannel* a, const LocalEventChannel* b) {
  return a->processor() < b->processor();
}

}  // namespace

LocalEventChannel& FederatedEventChannel::channel(ProcessorId processor) {
  assert(processor.valid());
  auto it = std::lower_bound(channels_.begin(), channels_.end(), processor,
                             precedes);
  if (it == channels_.end() || (*it)->processor() != processor) {
    it = channels_.insert(it, std::make_unique<LocalEventChannel>(processor));
    (*it)->federation_ = this;
  }
  return **it;
}

LocalEventChannel* FederatedEventChannel::find(ProcessorId processor) const {
  const auto it = std::lower_bound(channels_.begin(), channels_.end(),
                                   processor, precedes);
  if (it == channels_.end() || (*it)->processor() != processor) return nullptr;
  return it->get();
}

void FederatedEventChannel::enlist(EventType type,
                                   LocalEventChannel& channel) {
  std::vector<LocalEventChannel*>& listeners =
      listeners_[static_cast<std::size_t>(type)];
  listeners.insert(std::upper_bound(listeners.begin(), listeners.end(),
                                    &channel, by_processor),
                   &channel);
}

void FederatedEventChannel::delist(EventType type,
                                   LocalEventChannel& channel) {
  std::erase(listeners_[static_cast<std::size_t>(type)], &channel);
}

void FederatedEventChannel::route(const Event& event) {
  route_.clear();
  // The addressed processors, ascending and distinct, merged with the
  // type's listeners (also ascending) so each channel is examined once.
  const auto [a, b] = addressees(event.payload);
  std::array<ProcessorId, 2> addressed = {std::min(a, b), std::max(a, b)};
  const ProcessorId* dest = addressed.begin();
  const ProcessorId* dest_end = addressed.end();
  if (addressed[0] == addressed[1]) --dest_end;
  while (dest != dest_end && !dest->valid()) ++dest;
  const std::vector<LocalEventChannel*>& listeners =
      listeners_[static_cast<std::size_t>(event.type())];
  auto listener = listeners.begin();
  while (dest != dest_end || listener != listeners.end()) {
    LocalEventChannel* chan = nullptr;
    if (listener == listeners.end() ||
        (dest != dest_end && *dest < (*listener)->processor())) {
      chan = find(*dest++);
      if (chan == nullptr) continue;
    } else {
      chan = *listener++;
      if (dest != dest_end && *dest == chan->processor()) ++dest;
    }
    ++stats_.channel_visits;
    if (chan->matches(event)) route_.push_back(chan);
  }
}

void FederatedEventChannel::push(ProcessorId source, EventPayload payload) {
  assert(source.valid());
  Event event{source, sim_.now(), std::move(payload)};
  ++stats_.events_pushed;
  route(event);
  if (observer_ != nullptr) observer_->routed(event, route_);

  // Ship one copy per destination: the event is captured by value, matching
  // the wire copy a real gateway would forward.  The last destination takes
  // the pushed event itself.
  for (std::size_t i = 0; i < route_.size(); ++i) {
    LocalEventChannel* dest = route_[i];
    if (dest->processor() == source) ++stats_.local_deliveries;
    else ++stats_.remote_deliveries;
    auto deliver = [dest, copy = i + 1 < route_.size() ? Event(event)
                                                        : std::move(event)] {
      dest->deliver(copy);
    };
    // This is the hottest delegate in the middleware (one per event per
    // destination); growing events::Event past EventFn's inline capacity
    // would silently put a heap allocation back on every delivery.
    static_assert(sim::EventFn::fits_inline<decltype(deliver)>);
    network_.send(source, dest->processor(), std::move(deliver));
  }
}

}  // namespace rtcm::events
