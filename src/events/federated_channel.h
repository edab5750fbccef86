// Federated event channel (paper §3, Figure 1).
//
// "All processors are connected by TAO's federated event channel which
// pushes events through local event channels, gateways and remote event
// channels to the events' consumers sitting on different processors."
//
// One LocalEventChannel per processor holds that processor's subscriptions
// (local_channel.h); together they are the federation's subscription table,
// and the federation keeps a routing index over it so a push examines only
// the channels it can reach:
//   - the processors the payload addresses (events::addressees()), for
//     the channels' addressed subscriptions, and
//   - per event type, the channels holding an unaddressed subscription to
//     it (the generic case: the AC's TaskArrive and IdleReset consumers).
// The index changes only when a subscription is made or removed, never per
// event.
//
// A push from processor P is delivered to every examined channel whose keys
// accept it, in ascending ProcessorId order:
//   - P's own channel through the loopback (same simulator step at the
//     default zero loopback latency), and
//   - every other channel through the simulated network, one message each.
// Each channel then calls its accepting consumers in subscription order.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "events/local_channel.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace rtcm::events {

struct FederationStats {
  std::uint64_t events_pushed = 0;
  std::uint64_t local_deliveries = 0;
  std::uint64_t remote_deliveries = 0;
  /// Channels the router examined; each examined channel either accepts
  /// the event (one delivery) or not.  The end-to-end benchmark still
  /// computes its events.channel_visits as events_pushed x channel_count()
  /// (the cost of scanning every channel); it should read this counter
  /// instead once the benchmark itself is next revised.
  std::uint64_t channel_visits = 0;
};

/// Sees each push's routing decision.  Verification tooling installs one
/// to compare the router against a reference; production runs have none.
class RouteObserver {
 public:
  virtual ~RouteObserver() = default;
  /// `event` is sent to `sent_to`, in this (send) order.
  virtual void routed(const Event& event,
                      std::span<LocalEventChannel* const> sent_to) = 0;
};

class FederatedEventChannel {
 public:
  FederatedEventChannel(sim::Simulator& sim, sim::Network& network)
      : sim_(sim), network_(network) {}
  FederatedEventChannel(const FederatedEventChannel&) = delete;
  FederatedEventChannel& operator=(const FederatedEventChannel&) = delete;

  /// The local channel of `processor`, created on first use.
  LocalEventChannel& channel(ProcessorId processor);

  /// Push an event from `source`; stamps `published` and routes to every
  /// interested channel (including the source's own).
  void push(ProcessorId source, EventPayload payload);

  /// Null removes the observer.
  void set_route_observer(RouteObserver* observer) { observer_ = observer; }

  [[nodiscard]] const FederationStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }

 private:
  friend class LocalEventChannel;

  /// The channel of `processor`, or null if it has none.
  [[nodiscard]] LocalEventChannel* find(ProcessorId processor) const;
  /// `channel` gained its first / lost its last unaddressed subscription to
  /// `type`.
  void enlist(EventType type, LocalEventChannel& channel);
  void delist(EventType type, LocalEventChannel& channel);
  /// Fills route_ with the channels accepting `event`, in send order.
  void route(const Event& event);

  sim::Simulator& sim_;
  sim::Network& network_;
  /// Ascending ProcessorId.
  std::vector<std::unique_ptr<LocalEventChannel>> channels_;
  /// Per event type, the channels with an unaddressed subscription to it,
  /// in ascending ProcessorId.
  std::array<std::vector<LocalEventChannel*>, kEventTypeCount> listeners_;
  /// One push's destinations; reused, so routing does not allocate.
  std::vector<LocalEventChannel*> route_;
  RouteObserver* observer_ = nullptr;
  FederationStats stats_;
};

}  // namespace rtcm::events
