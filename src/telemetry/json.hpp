// Minimal JSON value tree used by the telemetry exporters, the Chrome-trace
// writer, and the bench harnesses' machine-readable output. Order-preserving
// objects (so emitted files diff cleanly across runs), no external deps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace geo::telemetry {

// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

// True when `text` parses: `Json::parse(text).has_value()`, so a document
// that passes this check also loads. Used by tests and benches to assert
// emitted artifacts are loadable without a third-party parser.
bool json_valid(std::string_view text);

class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}

  static Json object();
  static Json array();
  // Embeds pre-rendered JSON verbatim (caller guarantees validity; rejected
  // at dump time if `json_valid` fails, rendering null instead).
  static Json raw(std::string text);

  // Parses `text` into a value tree. Returns nullopt on syntax error. The
  // inverse of dump(): escape sequences are decoded, numbers without a
  // fraction/exponent that fit an int64 load as integers, all others as
  // doubles. Raw nodes are never produced.
  static std::optional<Json> parse(std::string_view text);
  // Reads and parses a whole file; nullopt if unreadable or invalid.
  static std::optional<Json> parse_file(const std::string& path);

  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const {
    return kind_ == Kind::kNumber || kind_ == Kind::kInt;
  }

  // Value accessors; return the neutral value when the kind mismatches.
  double number() const {
    if (kind_ == Kind::kInt) return static_cast<double>(int_);
    return kind_ == Kind::kNumber ? num_ : 0.0;
  }
  std::int64_t integer() const {
    if (kind_ == Kind::kNumber) return static_cast<std::int64_t>(num_);
    return kind_ == Kind::kInt ? int_ : 0;
  }
  bool boolean() const { return kind_ == Kind::kBool && bool_; }
  const std::string& str() const { return str_; }

  // Object member lookup (first match); nullptr when absent or not an
  // object. Members/elements expose the underlying order-preserving storage
  // for iteration.
  const Json* find(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return object_;
  }
  const std::vector<Json>& elements() const { return array_; }

  // Object insertion (last writer wins is NOT implemented: duplicate keys
  // are appended; callers use unique keys). Returns *this for chaining.
  Json& set(std::string key, Json value);

  // Array append.
  Json& push(Json value);

  std::size_t size() const;

  // Serializes with `indent` spaces per level (0 = compact single line).
  std::string dump(int indent = 2) const;

  // Writes dump() to `path` (with trailing newline). Returns success.
  bool write_file(const std::string& path, int indent = 2) const;

 private:
  enum class Kind { kNull, kBool, kNumber, kInt, kString, kObject, kArray, kRaw };

  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  std::string str_;  // string payload, or raw JSON for kRaw
  std::vector<std::pair<std::string, Json>> object_;
  std::vector<Json> array_;
};

}  // namespace geo::telemetry
