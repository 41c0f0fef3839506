#ifndef PPN_COMMON_JSON_H_
#define PPN_COMMON_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file
/// Minimal JSON reader for the telemetry tooling: `ppn_cli report` parses
/// RunLog JSONL lines and Chrome trace-event files that this repo itself
/// writes, and the test suite uses it to validate exporter output. It is a
/// strict recursive-descent parser over the full JSON grammar (objects,
/// arrays, strings with escapes, numbers, booleans, null) — not a
/// streaming parser; inputs here are at most a few MB. The two writer
/// helpers below are shared by every exporter, so what one writes the
/// parser always reads back.

namespace ppn {

/// One parsed JSON value. A tagged tree: exactly the members matching
/// `type()` are meaningful.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Value accessors; PPN_CHECK-abort on type mismatch.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;

  /// Object members in document order (duplicate keys are kept as-is).
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const;

  /// Pointer to the first member named `key`, or nullptr. Checks this is
  /// an object.
  const JsonValue* Find(const std::string& key) const;

  /// Convenience lookups with fallback: nullptr/absent/mistyped members
  /// yield the fallback instead of aborting.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool value);
  static JsonValue MakeNumber(double value);
  static JsonValue MakeString(std::string value);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses `text` (one complete JSON document, optionally surrounded by
/// whitespace). On failure returns false and, when `error` is non-null,
/// describes the first offending byte and its offset.
bool ParseJson(std::string_view text, JsonValue* out,
               std::string* error = nullptr);

/// Escapes `text` for use inside a JSON string literal: `"` and `\` are
/// backslash-escaped and every control character below 0x20 becomes
/// `\u00XX`, so any byte string survives a `ParseJson` round trip.
std::string JsonEscape(std::string_view text);

/// Appends `value` as `%.17g` (every finite double round-trips bit-exactly
/// through `ParseJson`), or `null` for NaN/±Inf, which JSON cannot hold.
void AppendJsonNumber(std::string* out, double value);

}  // namespace ppn

#endif  // PPN_COMMON_JSON_H_
