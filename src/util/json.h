// asyncmac/util/json.h
//
// The one JSON codec: a strict parser for the documents asyncmac reads
// back from disk (telemetry JSONL lines, fuzz repro files) and the string
// escaper their writers share. The grammar is stated in util/README.md.
// Callers keep only their schema (which keys, kinds and ranges they
// accept); malformed text fails here with std::invalid_argument naming a
// byte offset, never with another exception or a crash.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace asyncmac::util {

/// One parsed JSON value. Object members keep their input order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// Every number, as the nearest double.
  double number = 0;
  /// The literal is an integer in [INT64_MIN, UINT64_MAX]: the exact
  /// value is `magnitude`, negated when `negative` (the literal had a
  /// '-'). Integers beyond 64 bits keep only `number`.
  bool integral = false;
  bool negative = false;
  std::uint64_t magnitude = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The member with this key, or nullptr (always nullptr off objects).
  const JsonValue* find(const std::string& key) const;
  /// Exact value of an integral number; throws std::invalid_argument for
  /// any other value and for one outside the type's range.
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
};

/// The deepest array/object nesting parse_json accepts. The parser
/// recurses once per level, so a cap keeps a hostile document from
/// exhausting the stack; no writer nests deeper than 3.
inline constexpr int kMaxJsonDepth = 64;

/// Parse one JSON document; throws std::invalid_argument with a byte
/// offset on anything outside the grammar, including trailing bytes,
/// duplicate object keys, numbers a double cannot hold and nesting
/// deeper than kMaxJsonDepth.
JsonValue parse_json(const std::string& text);

/// `s` escaped for the inside of a JSON string literal: '"', '\\', '\n',
/// '\r' and '\t' as two-byte escapes, every other byte below 0x20 as
/// \u00xx, all other bytes verbatim.
std::string json_escape(const std::string& s);

}  // namespace asyncmac::util
