#ifndef MAXSON_JSON_JSON_VALUE_H_
#define MAXSON_JSON_JSON_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace maxson::json {

/// Runtime type tag of a JsonValue.
enum class JsonType {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kArray,
  kObject,
};

/// Owned JSON document tree (DOM). Objects preserve insertion order of keys,
/// matching how parsers and generators emit fields; lookups are linear scans,
/// which is the right trade-off for the small objects typical of log records.
class JsonValue {
 public:
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : type_(JsonType::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.type_ = JsonType::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Int(int64_t i) {
    JsonValue v;
    v.type_ = JsonType::kInt;
    v.int_ = i;
    return v;
  }
  static JsonValue Double(double d) {
    JsonValue v;
    v.type_ = JsonType::kDouble;
    v.double_ = d;
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.type_ = JsonType::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.type_ = JsonType::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.type_ = JsonType::kObject;
    return v;
  }

  JsonType type() const { return type_; }
  bool is_null() const { return type_ == JsonType::kNull; }
  bool is_bool() const { return type_ == JsonType::kBool; }
  bool is_int() const { return type_ == JsonType::kInt; }
  bool is_double() const { return type_ == JsonType::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == JsonType::kString; }
  bool is_array() const { return type_ == JsonType::kArray; }
  bool is_object() const { return type_ == JsonType::kObject; }

  bool bool_value() const { return bool_; }
  int64_t int_value() const { return int_; }
  double double_value() const {
    return is_int() ? static_cast<double>(int_) : double_;
  }
  const std::string& string_value() const { return string_; }

  /// Array accessors; valid only when is_array().
  size_t size() const {
    return is_array() ? elements_.size() : members_.size();
  }
  const JsonValue& At(size_t i) const { return elements_[i]; }
  void Append(JsonValue v) { elements_.push_back(std::move(v)); }
  const std::vector<JsonValue>& elements() const { return elements_; }

  /// Object accessors; valid only when is_object().
  const std::vector<Member>& members() const { return members_; }
  /// Returns nullptr when `key` is absent (or this is not an object).
  const JsonValue* Find(std::string_view key) const;
  /// Inserts or overwrites a member.
  void Set(std::string key, JsonValue v);

  /// Structural equality (ints and doubles compare as distinct types).
  bool operator==(const JsonValue& other) const;

 private:
  JsonType type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> elements_;
  std::vector<Member> members_;
};

}  // namespace maxson::json

#endif  // MAXSON_JSON_JSON_VALUE_H_
