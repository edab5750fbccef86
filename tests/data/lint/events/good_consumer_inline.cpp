// Fixture: the sanctioned event-channel shape — subscriptions keyed by
// plain data, consumers held in an inline-buffer delegate, and delivery a
// lookup by key with no predicate call.
#include <cstddef>
#include <vector>

template <typename Sig, std::size_t Cap>
class InlineFunction;

struct Event {
  int type;
  int task;
};

struct Subscription {
  int type;
  int task;  // -1: any task
  InlineFunction<void(const Event&), 8>* consumer;
};

std::size_t count_matches(const std::vector<Subscription>& table,
                          const Event& event) {
  std::size_t n = 0;
  for (const Subscription& s : table) {
    if (s.type == event.type && (s.task < 0 || s.task == event.task)) ++n;
  }
  return n;
}
