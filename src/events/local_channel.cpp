#include "events/local_channel.h"

#include <algorithm>
#include <cassert>

#include "events/federated_channel.h"

namespace rtcm::events {

namespace {

/// The part of a key the table is sorted by; `addressed` is checked per
/// subscription.  Any task sorts as -1, any stage as kAnyStage.
struct Bucket {
  EventType type;
  std::int32_t task;
  std::uint32_t stage;
  auto operator<=>(const Bucket&) const = default;
};

Bucket bucket_of(const SubscriptionKey& key) {
  return {key.type, key.task.value(), key.stage};
}

/// Orders table entries (anything with a `key`) against a Bucket.
struct ByBucket {
  template <typename Entry>
  bool operator()(const Entry& e, const Bucket& b) const {
    return bucket_of(e.key) < b;
  }
  template <typename Entry>
  bool operator()(const Bucket& b, const Entry& e) const {
    return b < bucket_of(e.key);
  }
};

std::size_t type_index(EventType type) {
  return static_cast<std::size_t>(type);
}

/// The task a payload is about (invalid for IdleReset).
TaskId task_of(const EventPayload& payload) {
  return std::visit(
      [](const auto& p) {
        if constexpr (std::is_same_v<std::decay_t<decltype(p)>,
                                     IdleResetPayload>) {
          return TaskId();
        } else {
          return p.task;
        }
      },
      payload);
}

/// A Trigger's stage as a key value; kAnyStage (no stage key matches) for
/// every other type and for stages no key can name.
std::uint32_t stage_of(const EventPayload& payload) {
  const auto* trigger = std::get_if<TriggerPayload>(&payload);
  if (trigger == nullptr || trigger->stage >= SubscriptionKey::kAnyStage) {
    return SubscriptionKey::kAnyStage;
  }
  return static_cast<std::uint32_t>(trigger->stage);
}

}  // namespace

template <typename Visit>
void LocalEventChannel::for_each_match(const Event& event,
                                       Visit&& visit) const {
  const EventType type = event.type();
  const bool here = addressees(event.payload).contains(processor_);
  if (!here && unaddressed_[type_index(type)] == 0) return;

  // The keys that can accept this event: any or its task, by any or its
  // stage.  Each is one run of the sorted table, in subscription order.
  struct Run {
    std::vector<Subscription>::const_iterator next, last;
  };
  std::array<Run, 4> runs;
  std::size_t run_count = 0;
  const auto add_run = [&](std::int32_t task, std::uint32_t stage) {
    const auto [first, last] =
        std::equal_range(subscriptions_.begin(), subscriptions_.end(),
                         Bucket{type, task, stage}, ByBucket{});
    if (first != last) runs[run_count++] = {first, last};
  };
  const TaskId task = task_of(event.payload);
  const std::uint32_t stage = stage_of(event.payload);
  add_run(TaskId().value(), SubscriptionKey::kAnyStage);
  if (task.valid()) add_run(task.value(), SubscriptionKey::kAnyStage);
  if (stage != SubscriptionKey::kAnyStage) {
    add_run(TaskId().value(), stage);
    if (task.valid()) add_run(task.value(), stage);
  }

  // Merge the runs by id.  A subscription retired mid-delivery reads id 0
  // and is taken (and skipped) first, which leaves the rest in order.
  while (true) {
    Run* best = nullptr;
    for (std::size_t i = 0; i < run_count; ++i) {
      Run& run = runs[i];
      if (run.next != run.last &&
          (best == nullptr || run.next->id < best->next->id)) {
        best = &run;
      }
    }
    if (best == nullptr) return;
    const Subscription& s = *best->next++;
    if (s.id == 0 || (s.key.addressed && !here)) continue;
    if (!visit(static_cast<std::size_t>(&s - subscriptions_.data()))) return;
  }
}

SubscriptionId LocalEventChannel::subscribe(SubscriptionKey key,
                                            ConsumerFn consumer) {
  assert(consumer && "subscription needs a consumer callback");
  if (!key.task.valid()) key.task = TaskId();
  const std::uint32_t id = next_id_++;
  ++live_;
  if (!key.addressed && unaddressed_[type_index(key.type)]++ == 0 &&
      federation_ != nullptr) {
    federation_->enlist(key.type, *this);
  }
  Subscription subscription{key, id, std::move(consumer)};
  if (delivering_ > 0) {
    pending_.push_back(std::move(subscription));
  } else {
    insert(std::move(subscription));
  }
  return SubscriptionId(id);
}

void LocalEventChannel::insert(Subscription subscription) {
  const auto at =
      std::upper_bound(subscriptions_.begin(), subscriptions_.end(),
                       bucket_of(subscription.key), ByBucket{});
  subscriptions_.insert(at, std::move(subscription));
}

bool LocalEventChannel::unsubscribe(SubscriptionId id) {
  if (!id.valid()) return false;
  const auto retire = [this](const SubscriptionKey& key) {
    --live_;
    if (!key.addressed && --unaddressed_[type_index(key.type)] == 0 &&
        federation_ != nullptr) {
      federation_->delist(key.type, *this);
    }
  };
  const auto has_id = [&](const Subscription& s) { return s.id == id.v_; };
  if (const auto it = std::find_if(pending_.begin(), pending_.end(), has_id);
      it != pending_.end()) {
    retire(it->key);
    pending_.erase(it);
    return true;
  }
  const auto it =
      std::find_if(subscriptions_.begin(), subscriptions_.end(), has_id);
  if (it == subscriptions_.end()) return false;
  retire(it->key);
  if (delivering_ > 0) {
    // Its consumer may be the one running: retire it in place.
    it->id = 0;
    retired_ = true;
  } else {
    subscriptions_.erase(it);
  }
  return true;
}

bool LocalEventChannel::matches(const Event& event) const {
  bool found = false;
  for_each_match(event, [&found](std::size_t) {
    found = true;
    return false;
  });
  if (found || pending_.empty()) return found;
  // Made by a consumer still running: not delivered the event that is
  // being delivered, but routed every event pushed from now on.
  const EventType type = event.type();
  const TaskId task = task_of(event.payload);
  const std::uint32_t stage = stage_of(event.payload);
  const bool here = addressees(event.payload).contains(processor_);
  return std::any_of(
      pending_.begin(), pending_.end(), [&](const Subscription& s) {
        return s.key.type == type &&
               (!s.key.task.valid() || s.key.task == task) &&
               (s.key.stage == SubscriptionKey::kAnyStage ||
                s.key.stage == stage) &&
               (!s.key.addressed || here);
      });
}

void LocalEventChannel::deliver(const Event& event) {
  ++delivering_;
  for_each_match(event, [&](std::size_t i) {
    ++delivered_;
    subscriptions_[i].consumer(event);
    return true;
  });
  if (--delivering_ == 0 && (retired_ || !pending_.empty())) settle();
}

void LocalEventChannel::settle() {
  if (retired_) {
    std::erase_if(subscriptions_,
                  [](const Subscription& s) { return s.id == 0; });
    retired_ = false;
  }
  for (Subscription& s : pending_) insert(std::move(s));
  pending_.clear();
}

void LocalEventChannel::consumers(const Event& event,
                                  std::vector<SubscriptionId>& out) const {
  out.clear();
  for_each_match(event, [&](std::size_t i) {
    out.push_back(SubscriptionId(subscriptions_[i].id));
    return true;
  });
}

std::vector<std::pair<SubscriptionId, SubscriptionKey>>
LocalEventChannel::subscriptions() const {
  std::vector<std::pair<SubscriptionId, SubscriptionKey>> out;
  out.reserve(live_);
  for (const auto* table : {&subscriptions_, &pending_}) {
    for (const Subscription& s : *table) {
      if (s.id != 0) out.emplace_back(SubscriptionId(s.id), s.key);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace rtcm::events
