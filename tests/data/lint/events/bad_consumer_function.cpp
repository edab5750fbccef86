// Fixture: event-channel code (any file under an events/ directory) is on
// the event path too — a consumer or filter held in std::function would
// put type-erased, possibly allocating callbacks back on every delivery.
// lint-expect: sim-path-alloc
#include <functional>
#include <vector>

struct Event {
  int type;
};

struct Subscription {
  int type;
  std::function<void(const Event&)> consumer;
  std::function<bool(const Event&)> filter;
};

void deliver(std::vector<Subscription>& table, const Event& event) {
  for (Subscription& s : table) {
    if (s.type == event.type && (!s.filter || s.filter(event))) {
      s.consumer(event);
    }
  }
}
