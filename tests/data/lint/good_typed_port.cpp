// Fixture: typed ports bind an interface pointer with dynamic_cast, and
// std::any_of / std::all_of are ordinary algorithms, not type erasure.
#include <algorithm>
#include <vector>

struct Component {
  virtual ~Component() = default;
};
struct Greeter {
  virtual ~Greeter() = default;
};

Greeter* bind(Component& provider) { return dynamic_cast<Greeter*>(&provider); }

bool any_missing(const std::vector<Greeter*>& slots) {
  return std::any_of(slots.begin(), slots.end(),
                     [](const Greeter* g) { return g == nullptr; });
}

// A comment naming std::any is not code.
const char* kNote = "std::any is not used here";
