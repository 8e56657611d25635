#include "json/json_value.h"

namespace maxson::json {

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void JsonValue::Set(std::string key, JsonValue v) {
  for (Member& m : members_) {
    if (m.first == key) {
      m.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case JsonType::kNull:
      return true;
    case JsonType::kBool:
      return bool_ == other.bool_;
    case JsonType::kInt:
      return int_ == other.int_;
    case JsonType::kDouble:
      return double_ == other.double_;
    case JsonType::kString:
      return string_ == other.string_;
    case JsonType::kArray:
      return elements_ == other.elements_;
    case JsonType::kObject:
      return members_ == other.members_;
  }
  return false;
}

}  // namespace maxson::json
