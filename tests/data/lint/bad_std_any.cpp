// Fixture: a receptacle that takes a type-erased value checks its interface
// at run time through any_cast; ports bind typed interface pointers instead.
// lint-expect: std-any
#include <any>
#include <map>
#include <string>

struct Greeter {
  virtual ~Greeter() = default;
};

std::map<std::string, std::any> facets;

Greeter* connect(const std::any& iface) {
  auto* const* greeter = std::any_cast<Greeter*>(&iface);
  return greeter == nullptr ? nullptr : *greeter;
}

std::any wrap(Greeter* g) { return std::make_any<Greeter*>(g); }
