// Fixture: a getenv that only labels or displays output is allowed with a
// written reason.  The allow may sit above a clang-tidy NOLINTNEXTLINE in
// the same run of comment lines.
#include <cstdlib>
#include <string>

std::string build_label() {
  // rtcm-lint: allow(env-switch) provenance label, never changes behaviour
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("BUILD_LABEL");
  return env != nullptr ? env : "unknown";
}
