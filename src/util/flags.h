// Tiny command-line flag parser for the bench/example binaries.
//
// Accepts --name=value and --name value forms plus bare --name booleans.
// The --name value lookahead never swallows a negative-number token ("-5",
// "-0.25"): those stay positional, so a negative value must be spelled
// --name=-5.  A lone "--" ends flag parsing; every later token is
// positional verbatim.  Unknown flags are collected so callers can reject
// them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rtcm {

class Flags {
 public:
  /// Parse argv; never throws — malformed values surface via the typed
  /// getters' defaults plus `errors()`.
  static Flags parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;

  /// Non-flag positional arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// Parse problems (e.g. non-numeric value fetched via get_int).
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

  /// Record an error for every parsed flag not in `known`, so a typo like
  /// --seeeds=3 fails fast instead of silently running with defaults.
  void reject_unknown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> errors_;
};

}  // namespace rtcm
