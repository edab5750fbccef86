// Fixture: sim event paths (any file under a sim/ directory) must not use
// std::function or raw new — zero per-event heap allocations is an
// enforced contract (tests/sim_alloc_test.cpp); InlineFunction, slabs and
// inline lists are the sanctioned tools.
// lint-expect: sim-path-alloc
#include <functional>

struct Event {
  int id;
};

struct EventSlot {
  std::function<void(const Event&)> callback;
};

EventSlot* make_slot() {
  return new EventSlot{};
}
