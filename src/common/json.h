#pragma once

/// \file json.h
/// \brief Minimal JSON value model, parser, and writer.
///
/// The serving protocol (server/protocol.h) speaks line-delimited JSON and
/// the bench harnesses emit JSON records; both need exactly a value tree, a
/// strict parser, and a deterministic writer — not a framework. This one
/// is self-contained (no third-party dependency, per the repo's rule) and
/// deliberately small:
///
///  * `JsonValue` is a 16-byte tagged union of null / bool / number
///    (double) / string / array / object: the kind plus either an inline
///    bool or double or one owning pointer to the string, array, or
///    object. Copies are deep, moves steal the pointer. A full score row
///    is an array of ~n numbers, so the per-value footprint is what
///    building and parsing a row costs. Objects preserve insertion order —
///    encoded output is deterministic, which the golden-style protocol
///    tests rely on — and lookups are linear (protocol objects have a
///    handful of keys).
///  * `ParseJson` is a strict recursive-descent parser: full escape
///    handling (including surrogate pairs), a nesting-depth cap so hostile
///    input cannot blow the stack, and trailing garbage is an error.
///    Errors are `Status::InvalidArgument` with a byte offset.
///  * `Encode` writes the canonical compact form. Numbers that hold an
///    exactly-representable integer (|v| <= 2^53) print as integers —
///    node ids, versions, and counts round-trip textually — and anything
///    else prints with enough digits ("%.17g") to round-trip the double.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "srs/common/result.h"

namespace srs {

/// \brief One JSON value: null, bool, number, string, array, or object.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered; duplicate keys are not rejected (last Find wins is
  /// NOT the rule — Find returns the first), but the writers here never
  /// produce them.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : kind_(Kind::kNull) { payload_.number = 0.0; }
  JsonValue(bool v) : kind_(Kind::kBool) {  // NOLINT
    payload_.boolean = v;
  }
  JsonValue(double v) : kind_(Kind::kNumber) {  // NOLINT
    payload_.number = v;
  }
  JsonValue(int v) : JsonValue(static_cast<double>(v)) {}       // NOLINT
  JsonValue(int64_t v) : JsonValue(static_cast<double>(v)) {}   // NOLINT
  JsonValue(uint64_t v) : JsonValue(static_cast<double>(v)) {}  // NOLINT
  JsonValue(std::string v);                                     // NOLINT
  JsonValue(const char* v) : JsonValue(std::string(v)) {}       // NOLINT

  /// Deep copy; a moved-from value is null.
  JsonValue(const JsonValue& other);
  JsonValue(JsonValue&& other) noexcept
      : kind_(other.kind_), payload_(other.payload_) {
    other.kind_ = Kind::kNull;
  }
  JsonValue& operator=(const JsonValue& other);
  JsonValue& operator=(JsonValue&& other) noexcept;
  ~JsonValue() {
    if (kind_ >= Kind::kString) Release();
  }

  static JsonValue MakeArray() { return JsonValue(Kind::kArray); }
  static JsonValue MakeObject() { return JsonValue(Kind::kObject); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; the caller checks the kind first (SRS_CHECK inside).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const Array& array() const;
  Array& array();
  const Object& object() const;
  Object& object();

  /// Appends to an array value.
  void Append(JsonValue v);

  /// Sets `key` in an object value (appends; never deduplicates).
  void Set(std::string key, JsonValue v);

  /// First value under `key` in an object, or null when absent (or when
  /// this value is not an object — lookups compose without kind checks).
  const JsonValue* Find(std::string_view key) const;

  /// Canonical compact encoding (no whitespace, keys in insertion order).
  std::string Encode() const;

 private:
  /// An empty array or object.
  explicit JsonValue(Kind kind);

  /// Frees the owned string, array, or object.
  void Release();

  union Payload {
    bool boolean;
    double number;
    std::string* string;
    Array* array;
    Object* object;
  };

  Kind kind_;
  Payload payload_;
};

/// Parses exactly one JSON document from `text` (leading/trailing
/// whitespace allowed, anything else after the value is an error).
/// InvalidArgument with a byte offset on malformed input or nesting deeper
/// than an internal cap.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace srs
