// Local event channel: one processor's half of the subscription table.
//
// Paper §3: the federated event channel forwards events "through local
// event channels, gateways and remote event channels", and a gateway
// subscribes on behalf of the remote consumers behind it.  That makes the
// routing state a table of declarative subscriptions, not a predicate run
// per event: each subscription here states a key, and the federation
// (federated_channel.h) routes a push only to channels whose keys accept it.
//
// Key semantics.  A SubscriptionKey names one event type and may narrow it:
//   - task:      only events about that task (TaskArrive, Accept, Reject,
//                Trigger carry one; IdleReset never matches a task key);
//   - stage:     only Triggers of that stage;
//   - addressed: only events whose payload names this channel's processor
//                among its destinations (events::addressees()).  The
//                unaddressed types (TaskArrive, IdleReset) never match.
// A subscription with only a type is the generic case ("every event of
// this type pushed anywhere").
//
// Ordering.  deliver() calls the accepting consumers in subscription order.
// A subscription made during a delivery does not see the event being
// delivered; one removed during a delivery is not called afterwards.
// Neither delivering nor looking up consumers allocates.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "events/event.h"
#include "util/ids.h"
#include "util/inline_fn.h"

namespace rtcm::events {

class FederatedEventChannel;

/// A consumer callback.  Components capture only their `this`, so the inline
/// buffer holds one pointer; a larger capture falls back to one heap
/// allocation at subscribe time, never per event.
using ConsumerFn = InlineFunction<void(const Event&), sizeof(void*)>;

struct SubscriptionKey {
  static constexpr std::uint32_t kAnyStage = 0xffffffffu;

  /// Every event of `type` (implicit, so a bare EventType is a key).
  constexpr SubscriptionKey(EventType type)  // NOLINT(google-explicit-constructor)
      : type(type) {}

  [[nodiscard]] constexpr SubscriptionKey for_task(TaskId t) const {
    SubscriptionKey key = *this;
    key.task = t;
    return key;
  }
  [[nodiscard]] constexpr SubscriptionKey for_stage(std::uint32_t s) const {
    SubscriptionKey key = *this;
    key.stage = s;
    return key;
  }
  [[nodiscard]] constexpr SubscriptionKey to_this_processor() const {
    SubscriptionKey key = *this;
    key.addressed = true;
    return key;
  }

  [[nodiscard]] bool operator==(const SubscriptionKey&) const = default;

  EventType type;
  bool addressed = false;
  /// Invalid: any task.
  TaskId task;
  /// kAnyStage: any stage.
  std::uint32_t stage = kAnyStage;
};

class SubscriptionId {
 public:
  constexpr SubscriptionId() = default;
  [[nodiscard]] constexpr bool valid() const { return v_ != 0; }
  constexpr auto operator<=>(const SubscriptionId&) const = default;

 private:
  friend class LocalEventChannel;
  constexpr explicit SubscriptionId(std::uint32_t v) : v_(v) {}
  std::uint32_t v_ = 0;
};

class LocalEventChannel {
 public:
  explicit LocalEventChannel(ProcessorId processor) : processor_(processor) {}
  LocalEventChannel(const LocalEventChannel&) = delete;
  LocalEventChannel& operator=(const LocalEventChannel&) = delete;

  [[nodiscard]] ProcessorId processor() const { return processor_; }

  SubscriptionId subscribe(SubscriptionKey key, ConsumerFn consumer);
  bool unsubscribe(SubscriptionId id);

  /// Would any subscription accept this event?  (Routing query.)
  [[nodiscard]] bool matches(const Event& event) const;

  /// Dispatch to every accepting consumer, in subscription order.
  void deliver(const Event& event);

  /// The subscriptions deliver() would call for `event`, in call order
  /// (replaces the contents of `out`).
  void consumers(const Event& event, std::vector<SubscriptionId>& out) const;

  /// Every subscription and its key, in subscription order.
  [[nodiscard]] std::vector<std::pair<SubscriptionId, SubscriptionKey>>
  subscriptions() const;

  [[nodiscard]] std::size_t subscription_count() const { return live_; }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }

 private:
  friend class FederatedEventChannel;

  struct Subscription {
    SubscriptionKey key;
    /// 0 once unsubscribed during a delivery (erased when it ends).
    std::uint32_t id;
    ConsumerFn consumer;
  };

  /// Calls visit(index into subscriptions_) for each live subscription that
  /// accepts `event`, in subscription order, while visit returns true.
  template <typename Visit>
  void for_each_match(const Event& event, Visit&& visit) const;
  void insert(Subscription subscription);
  /// After the outermost delivery: erase retired subscriptions and index
  /// the ones made during it.
  void settle();

  ProcessorId processor_;
  /// The owning federation, told when this channel starts or stops
  /// listening to a type without an address; null for a standalone channel.
  FederatedEventChannel* federation_ = nullptr;
  std::uint32_t next_id_ = 1;
  std::uint32_t delivering_ = 0;
  bool retired_ = false;
  std::size_t live_ = 0;
  std::uint64_t delivered_ = 0;
  /// Live unaddressed subscriptions per event type.
  std::array<std::uint32_t, kEventTypeCount> unaddressed_{};
  /// Sorted by (type, task, stage), then by id, so the subscriptions of one
  /// key are a contiguous run in subscription order.
  std::vector<Subscription> subscriptions_;
  /// Made during a delivery; indexed once it ends.
  std::vector<Subscription> pending_;
};

}  // namespace rtcm::events
