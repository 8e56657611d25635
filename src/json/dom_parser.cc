#include "json/dom_parser.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

#include "simd/kernels.h"

namespace maxson::json {

namespace {

/// The ParseJson sink: materializes every value into the DOM. Values and
/// keys pass by rvalue reference so building costs no extra moves.
struct BuildSink {
  using Value = JsonValue;
  using Text = std::string;

  static Value String(Text&& s) { return JsonValue::String(std::move(s)); }
  static Value Bool(bool b) { return JsonValue::Bool(b); }
  static Value Null() { return JsonValue::Null(); }
  static Value Object() { return JsonValue::Object(); }
  static Value Array() { return JsonValue::Array(); }
  static void Set(Value* object, Text&& key, Value&& value) {
    object->Set(std::move(key), std::move(value));
  }
  static void Append(Value* array, Value&& value) {
    array->Append(std::move(value));
  }
  /// Converts a token the grammar accepted: an integer when it has no
  /// fraction or exponent and fits int64, else a double. strtod consumes
  /// every token of that grammar, so conversion cannot fail.
  static Value Number(std::string_view text, bool is_double) {
    const std::string token(text);
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return JsonValue::Int(v);
      }
      // Fall through: out-of-range integer becomes a double.
    }
    return JsonValue::Double(std::strtod(token.c_str(), nullptr));
  }
};

/// The ValidateJson sink: keeps nothing, so a validating pass runs the same
/// grammar without allocating.
struct NullSink {
  struct Value {};
  struct Text {
    void append(const char*, size_t) {}
    void push_back(char) {}
  };

  static Value String(Text&&) { return {}; }
  static Value Bool(bool) { return {}; }
  static Value Null() { return {}; }
  static Value Object() { return {}; }
  static Value Array() { return {}; }
  static void Set(Value*, Text&&, Value&&) {}
  static void Append(Value*, Value&&) {}
  static Value Number(std::string_view, bool) { return {}; }
};

/// Single-pass cursor over the input text: the one copy of the JSON grammar.
/// `Sink` decides what an accepted value becomes (BuildSink: a JsonValue;
/// NullSink: nothing), so ParseJson and ValidateJson accept exactly the
/// same documents and fail with the same message at the same offset.
template <typename Sink>
class Parser {
 public:
  using Value = typename Sink::Value;
  using Text = typename Sink::Text;

  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Parse() {
    SkipWhitespace();
    MAXSON_ASSIGN_OR_RETURN(Value value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status Error(const std::string& what) const {
    return Status::ParseError(what + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    // Compact records have no whitespace between tokens; checking the
    // next byte inline spares the kernel call in that common case.
    if (AtEnd() || !IsWhitespace(Peek())) return;
    pos_ = simd::SkipWhitespace(text_.data(), text_.size(), pos_);
  }

  static bool IsWhitespace(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  Result<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        MAXSON_ASSIGN_OR_RETURN(Text s, ParseString());
        return Sink::String(std::move(s));
      }
      case 't':
        return ParseLiteral("true", Sink::Bool(true));
      case 'f':
        return ParseLiteral("false", Sink::Bool(false));
      case 'n':
        return ParseLiteral("null", Sink::Null());
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseLiteral(std::string_view literal, Value value) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Error("invalid literal");
    }
    pos_ += literal.size();
    return value;
  }

  Result<Value> ParseObject(int depth) {
    ++pos_;  // consume '{'
    Value obj = Sink::Object();
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key");
      MAXSON_ASSIGN_OR_RETURN(Text key, ParseString());
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') return Error("expected ':'");
      ++pos_;
      SkipWhitespace();
      MAXSON_ASSIGN_OR_RETURN(Value value, ParseValue(depth + 1));
      Sink::Set(&obj, std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return obj;
      }
      return Error("expected ',' or '}'");
    }
  }

  Result<Value> ParseArray(int depth) {
    ++pos_;  // consume '['
    Value arr = Sink::Array();
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      SkipWhitespace();
      MAXSON_ASSIGN_OR_RETURN(Value value, ParseValue(depth + 1));
      Sink::Append(&arr, std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return arr;
      }
      return Error("expected ',' or ']'");
    }
  }

  Result<Text> ParseString() {
    ++pos_;  // consume '"'
    Text out;
    while (true) {
      // Bulk-copy the run of plain bytes up to the next quote or backslash.
      const size_t next =
          simd::FindStringSpecial(text_.data(), text_.size(), pos_);
      out.append(text_.data() + pos_, next - pos_);
      pos_ = next;
      if (AtEnd()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      // c == '\\': decode the escape.
      if (AtEnd()) return Error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          MAXSON_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired surrogate");
            }
            pos_ += 2;
            MAXSON_ASSIGN_OR_RETURN(uint32_t lo, ParseHex4());
            if (lo < 0xDC00 || lo > 0xDFFF) return Error("invalid surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit");
      }
    }
    return v;
  }

  static void AppendUtf8(uint32_t cp, Text* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<Value> ParseNumber() {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    bool any_digit = false;
    while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
      ++pos_;
      any_digit = true;
    }
    if (!any_digit) return Error("invalid number");
    bool is_double = false;
    if (!AtEnd() && Peek() == '.') {
      is_double = true;
      ++pos_;
      bool frac_digit = false;
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        ++pos_;
        frac_digit = true;
      }
      if (!frac_digit) return Error("invalid fraction");
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      is_double = true;
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      bool exp_digit = false;
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        ++pos_;
        exp_digit = true;
      }
      if (!exp_digit) return Error("invalid exponent");
    }
    return Sink::Number(text_.substr(start, pos_ - start), is_double);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser<BuildSink>(text).Parse();
}

Status ValidateJson(std::string_view text) {
  Result<NullSink::Value> accepted = Parser<NullSink>(text).Parse();
  return accepted.ok() ? Status::Ok() : accepted.status();
}

}  // namespace maxson::json
