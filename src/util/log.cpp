#include "util/log.h"

#include <cstdio>

namespace rtcm::log_internal {

namespace {
LogLevel g_threshold = LogLevel::kWarn;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?";
}
}  // namespace

LogLevel threshold() { return g_threshold; }

void set_threshold(LogLevel level) { g_threshold = level; }

void emit(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[rtcm %s] %s\n", level_tag(level), msg.c_str());
}

}  // namespace rtcm::log_internal
