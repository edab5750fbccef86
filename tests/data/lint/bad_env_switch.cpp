// Fixture: an environment variable that picks behaviour is a second
// production path nobody runs by default.  A reference implementation
// belongs in tests/, not behind a getenv switch.
// lint-expect: env-switch
#include <cstdlib>
#include <string_view>

bool use_reference_queue() {
  const char* env = std::getenv("RTCM_QUEUE");
  return env != nullptr && std::string_view(env) == "reference";
}
