// Minimal JSON document model: build, serialize, parse.
//
// Written for the sweep engine's machine-readable bench reports
// (BENCH_<name>.json), so it optimizes for *deterministic output* rather
// than speed or completeness:
//   - objects preserve insertion order (no re-sorting between runs),
//   - numbers serialize via std::to_chars shortest round-trip form, so the
//     same double always renders the same bytes on every platform,
//   - dump() emits a canonical 2-space-indented layout.
// The parser accepts standard JSON (objects, arrays, strings with the
// common escapes, numbers, booleans, null) and is only as fast as the
// report files need; it exists so reports can be read back and diffed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"

namespace rtcm::json {

class Value;

/// Object member list; a vector (not a map) to preserve insertion order.
using Members = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}          // NOLINT: implicit
  Value(double d) : kind_(Kind::kNumber), number_(d) {}    // NOLINT: implicit
  Value(std::int64_t i)                                    // NOLINT: implicit
      : kind_(Kind::kNumber), number_(static_cast<double>(i)) {}
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}    // NOLINT: implicit
  Value(std::uint64_t u)                                   // NOLINT: implicit
      : Value(static_cast<std::int64_t>(u)) {}
  Value(std::string s)                                     // NOLINT: implicit
      : kind_(Kind::kString), string_(std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}          // NOLINT: implicit

  [[nodiscard]] static Value array();
  [[nodiscard]] static Value object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; defaults are returned on kind mismatch so report
  // readers degrade gracefully on schema drift.
  [[nodiscard]] bool as_bool(bool def = false) const;
  [[nodiscard]] double as_double(double def = 0.0) const;
  [[nodiscard]] std::int64_t as_int(std::int64_t def = 0) const;
  [[nodiscard]] const std::string& as_string() const;

  // Array access.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Value& at(std::size_t i) const;
  void push_back(Value v);

  // Object access.
  [[nodiscard]] const Members& members() const;
  /// Null-kind sentinel when the key is absent (or not an object).
  [[nodiscard]] const Value& get(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Insert or overwrite; insertion order is preserved for new keys.
  void set(std::string key, Value v);

  /// Canonical serialization: 2-space indent, "key": value, '\n' newlines,
  /// numbers in shortest round-trip form.  Identical documents serialize to
  /// identical bytes.
  [[nodiscard]] std::string dump() const;
  /// Single-line form (no indentation), same number/string rules.
  [[nodiscard]] std::string dump_compact() const;

  /// Parse a complete JSON document (trailing whitespace allowed, trailing
  /// garbage is an error).
  [[nodiscard]] static Result<Value> parse(std::string_view text);

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  Members members_;
};

/// Shortest round-trip decimal form of a double ("0.5", "322", "1e-09");
/// the single canonical spelling used everywhere a number is emitted.
[[nodiscard]] std::string number_to_string(double d);

}  // namespace rtcm::json
