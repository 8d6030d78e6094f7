// Minimal JSON support for the observability layer: a compact
// insertion-order writer (used by the NDJSON qlog tracer and the metrics
// registry) and a small recursive-descent parser (used by mpq_trace and
// the tests to read the traces back). Deliberately tiny — just enough to
// round-trip what this library itself writes; not a general JSON library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mpq::obs {

/// Append `text` to `out` as a JSON string literal: surrounding quotes,
/// backslash escapes for ", \, control characters (\n, \t, ... and \u00XX
/// for the rest). Non-ASCII bytes pass through untouched (valid UTF-8 in,
/// valid UTF-8 out).
void AppendJsonString(std::string& out, std::string_view text);

/// Compact streaming writer for one JSON document. Keys keep insertion
/// order; numbers are written without trailing noise. No pretty printing:
/// one event per line is the NDJSON contract.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(std::int64_t value);
  JsonWriter& UInt(std::uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  const std::string& str() const { return out_; }
  void Clear();

 private:
  void BeforeValue();

  std::string out_;
  std::vector<bool> needs_comma_;  // one flag per open container
  bool pending_key_ = false;
};

/// Parsed JSON value. Objects are sorted maps (deterministic iteration);
/// all numbers are doubles, which is exact for the integers this library
/// writes (below 2^53).
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() : value_(nullptr) {}
  explicit JsonValue(std::nullptr_t) : value_(nullptr) {}
  explicit JsonValue(bool b) : value_(b) {}
  explicit JsonValue(double d) : value_(d) {}
  explicit JsonValue(std::string s) : value_(std::move(s)) {}
  explicit JsonValue(Array a) : value_(std::move(a)) {}
  explicit JsonValue(Object o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool AsBool(bool fallback = false) const;
  double AsDouble(double fallback = 0.0) const;
  std::int64_t AsInt(std::int64_t fallback = 0) const;
  const std::string& AsString() const;  // empty string when not a string
  const Array& AsArray() const;        // empty array when not an array

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Parse one complete JSON document (trailing whitespace allowed,
  /// anything else after the value fails). nullopt on malformed input.
  static std::optional<JsonValue> Parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace mpq::obs
