#include "json/json_path.h"

#include <cctype>
#include <charconv>

#include "json/dom_parser.h"
#include "json/json_writer.h"

namespace maxson::json {

namespace {

bool IsFieldChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

}  // namespace

Result<JsonPath> JsonPath::Parse(std::string_view text) {
  if (text.empty() || text[0] != '$') {
    return Status::ParseError("JSONPath must start with '$': " +
                              std::string(text));
  }
  std::vector<JsonPathStep> steps;
  size_t pos = 1;
  while (pos < text.size()) {
    if (text[pos] == '.') {
      ++pos;
      size_t start = pos;
      while (pos < text.size() && IsFieldChar(text[pos])) ++pos;
      if (pos == start) {
        return Status::ParseError("empty field name in JSONPath: " +
                                  std::string(text));
      }
      JsonPathStep step;
      step.kind = JsonPathStep::Kind::kField;
      step.field = std::string(text.substr(start, pos - start));
      steps.push_back(std::move(step));
    } else if (text[pos] == '[') {
      ++pos;
      if (pos < text.size() && text[pos] == '\'') {
        // Bracketed field form: ['field name'].
        ++pos;
        size_t start = pos;
        while (pos < text.size() && text[pos] != '\'') ++pos;
        if (pos >= text.size()) {
          return Status::ParseError("unterminated ['...'] in JSONPath");
        }
        JsonPathStep step;
        step.kind = JsonPathStep::Kind::kField;
        step.field = std::string(text.substr(start, pos - start));
        ++pos;  // closing quote
        if (pos >= text.size() || text[pos] != ']') {
          return Status::ParseError("expected ']' in JSONPath");
        }
        ++pos;
        steps.push_back(std::move(step));
      } else {
        size_t start = pos;
        while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
          ++pos;
        }
        JsonPathStep step;
        step.kind = JsonPathStep::Kind::kIndex;
        if (pos == start || pos >= text.size() || text[pos] != ']' ||
            std::from_chars(text.data() + start, text.data() + pos,
                            step.index)
                    .ec != std::errc()) {
          return Status::ParseError("invalid array subscript in JSONPath: " +
                                    std::string(text));
        }
        ++pos;
        steps.push_back(std::move(step));
      }
    } else {
      return Status::ParseError("unexpected character in JSONPath: " +
                                std::string(text));
    }
  }
  return JsonPath(std::move(steps));
}

std::string JsonPath::ToString() const {
  std::string out = "$";
  for (const JsonPathStep& step : steps_) {
    if (step.kind == JsonPathStep::Kind::kField) {
      out.push_back('.');
      out.append(step.field);
    } else {
      out.push_back('[');
      out.append(std::to_string(step.index));
      out.push_back(']');
    }
  }
  return out;
}

const JsonValue* JsonPath::Evaluate(const JsonValue& root) const {
  const JsonValue* cur = &root;
  for (const JsonPathStep& step : steps_) {
    if (step.kind == JsonPathStep::Kind::kField) {
      if (!cur->is_object()) return nullptr;
      cur = cur->Find(step.field);
      if (cur == nullptr) return nullptr;
    } else {
      if (!cur->is_array()) return nullptr;
      if (step.index < 0 ||
          static_cast<size_t>(step.index) >= cur->elements().size()) {
        return nullptr;
      }
      cur = &cur->At(static_cast<size_t>(step.index));
    }
  }
  return cur;
}

std::string RenderGetJsonObjectResult(const JsonValue& value) {
  switch (value.type()) {
    case JsonType::kString:
      return value.string_value();  // scalars are rendered unquoted
    case JsonType::kNull:
      return "null";
    case JsonType::kBool:
      return value.bool_value() ? "true" : "false";
    case JsonType::kInt:
      return std::to_string(value.int_value());
    case JsonType::kDouble:
    case JsonType::kArray:
    case JsonType::kObject:
      return WriteJson(value);
  }
  return "";
}

Result<std::string> GetJsonObject(std::string_view json_text,
                                  const JsonPath& path) {
  MAXSON_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json_text));
  const JsonValue* node = path.Evaluate(root);
  if (node == nullptr) {
    return Status::NotFound("JSONPath " + path.ToString() + " not present");
  }
  return RenderGetJsonObjectResult(*node);
}

}  // namespace maxson::json
