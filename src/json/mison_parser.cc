#include "json/mison_parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "json/dom_parser.h"
#include "json/json_value.h"
#include "json/json_writer.h"
#include "simd/kernels.h"

namespace maxson::json {

namespace {

constexpr size_t kWordBits = simd::kWordBits;

}  // namespace

StructuralIndex::StructuralIndex(std::string_view text) : text_(text) {
  const size_t n = text.size();
  const size_t words = simd::BitmapWords(n);
  if (words == 0) {
    malformed_ = true;
    return;
  }

  // Phase 1 (dispatched kernel): bitmaps of quotes, backslashes, and the
  // merged ':' '{' '}' structural candidates — Mison's SIMD comparison
  // phase. Escaped quotes (preceded by an odd backslash run) are content,
  // not structure, so they are cleared with the word-parallel odd-run
  // detector before the string mask is built.
  std::vector<uint64_t> quote(words, 0);
  std::vector<uint64_t> backslash(words, 0);
  std::vector<uint64_t> structural(words, 0);
  simd::ClassifyJson(text.data(), n, quote.data(), backslash.data(),
                     structural.data());
  {
    uint64_t escape_carry = 0;
    for (size_t w = 0; w < words; ++w) {
      quote[w] &= ~simd::EscapedPositions(backslash[w], &escape_carry);
    }
  }

  // Phase 2 (word-parallel): string mask via prefix XOR over quote bits.
  // Bit i of `in_string` is 1 iff byte i lies inside a string literal
  // (opening quote inside, closing quote outside — sufficient because
  // structural characters are never quotes).
  std::vector<uint64_t> in_string(words, 0);
  {
    uint64_t parity = 0;  // parity of quotes seen so far
    for (size_t w = 0; w < words; ++w) {
      in_string[w] = simd::StringMaskWord(quote[w], &parity);
    }
    if (parity != 0) {
      malformed_ = true;  // unterminated string literal
      return;
    }
  }

  // Phase 3: walk only the structural bits outside strings (count-trailing-
  // zeros iteration), assigning a nesting level to every colon. Brackets do
  // not affect object member levels; array elements are handled by raw span
  // streaming at extraction time.
  uint32_t level = 0;
  colons_.reserve(16);
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = structural[w] & ~in_string[w];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      bits &= bits - 1;
      const size_t i = w * kWordBits + static_cast<size_t>(bit);
      switch (text[i]) {
        case '{':
          ++level;
          break;
        case '}':
          if (level == 0) {
            malformed_ = true;
            return;
          }
          --level;
          break;
        default:  // ':'
          colons_.push_back(Colon{static_cast<uint32_t>(i), level});
      }
    }
  }
  if (level != 0) malformed_ = true;
}

std::string_view StructuralIndex::KeyBefore(size_t ci) const {
  const size_t colon_pos = colons_[ci].pos;
  // Scan back over whitespace to the closing quote of the key, then to its
  // opening quote (skipping escaped quotes).
  size_t p = colon_pos;
  while (p > 0 && std::isspace(static_cast<unsigned char>(text_[p - 1]))) --p;
  if (p == 0 || text_[p - 1] != '"') return {};
  const size_t key_end = p - 1;
  size_t q = key_end;
  while (q > 0) {
    --q;
    if (text_[q] == '"') {
      // Count preceding backslashes to detect an escaped quote.
      size_t backslashes = 0;
      size_t b = q;
      while (b > 0 && text_[b - 1] == '\\') {
        ++backslashes;
        --b;
      }
      if (backslashes % 2 == 0) {
        return text_.substr(q + 1, key_end - q - 1);
      }
    }
  }
  return {};
}

std::string_view StructuralIndex::RawValueAfter(size_t ci) const {
  const uint32_t level = colons_[ci].level;
  size_t begin = colons_[ci].pos + 1;
  while (begin < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[begin]))) {
    ++begin;
  }
  // The value ends at the next comma at the same level or the brace closing
  // the enclosing object, whichever comes first; track strings and nesting.
  size_t end = begin;
  uint32_t depth = 0;  // relative {}/[] depth inside the value
  bool in_str = false;
  while (end < text_.size()) {
    const char c = text_[end];
    if (in_str) {
      if (c == '\\') {
        end += 2;
        continue;
      }
      if (c == '"') in_str = false;
      ++end;
      continue;
    }
    if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) break;  // closing brace of the enclosing container
      --depth;
    } else if (c == ',' && depth == 0) {
      break;
    }
    ++end;
  }
  // Trim trailing whitespace.
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text_[end - 1]))) {
    --end;
  }
  (void)level;
  return text_.substr(begin, end - begin);
}

int64_t StructuralIndex::FindField(size_t span_begin, size_t span_end,
                                   uint32_t level, std::string_view field,
                                   int64_t speculative_ordinal,
                                   bool* used_speculation) const {
  if (used_speculation != nullptr) *used_speculation = false;
  if (malformed_) return -1;
  // Candidate colons: those inside the span at the requested level. Colons
  // are sorted by position, so locate the range with binary search.
  auto lo = std::lower_bound(
      colons_.begin(), colons_.end(), span_begin,
      [](const Colon& c, size_t pos) { return c.pos < pos; });
  auto hi = std::lower_bound(
      colons_.begin(), colons_.end(), span_end,
      [](const Colon& c, size_t pos) { return c.pos < pos; });

  // Speculative probe: ordinal among same-level colons in the span.
  if (speculative_ordinal >= 0) {
    int64_t ordinal = 0;
    for (auto it = lo; it != hi; ++it) {
      if (it->level != level) continue;
      if (ordinal == speculative_ordinal) {
        const size_t ci = static_cast<size_t>(it - colons_.begin());
        if (KeyBefore(ci) == field) {
          if (used_speculation != nullptr) *used_speculation = true;
          return static_cast<int64_t>(ci);
        }
        break;  // speculation failed; fall back to the scan
      }
      ++ordinal;
    }
  }

  for (auto it = lo; it != hi; ++it) {
    if (it->level != level) continue;
    const size_t ci = static_cast<size_t>(it - colons_.begin());
    if (KeyBefore(ci) == field) return static_cast<int64_t>(ci);
  }
  return -1;
}

namespace {

/// Returns the ordinal of colon index `ci` among same-level colons within
/// [span_begin, span_end).
int64_t OrdinalOf(const StructuralIndex& index, size_t ci, size_t span_begin,
                  size_t span_end) {
  const auto& colons = index.colons();
  const uint32_t level = colons[ci].level;
  int64_t ordinal = 0;
  for (size_t i = 0; i < colons.size(); ++i) {
    if (colons[i].pos < span_begin || colons[i].pos >= span_end) continue;
    if (colons[i].level != level) continue;
    if (i == ci) return ordinal;
    ++ordinal;
  }
  return -1;
}

/// Streams over a raw JSON array span and returns the raw text of element
/// `want` (0-based), or empty when out of range.
std::string_view ArrayElementRaw(std::string_view raw, int64_t want) {
  if (raw.empty() || raw.front() != '[') return {};
  size_t p = 1;
  int64_t idx = 0;
  while (p < raw.size()) {
    while (p < raw.size() &&
           std::isspace(static_cast<unsigned char>(raw[p]))) {
      ++p;
    }
    if (p >= raw.size() || raw[p] == ']') return {};
    const size_t elem_begin = p;
    uint32_t depth = 0;
    bool in_str = false;
    while (p < raw.size()) {
      const char c = raw[p];
      if (in_str) {
        if (c == '\\') {
          p += 2;
          continue;
        }
        if (c == '"') in_str = false;
        ++p;
        continue;
      }
      if (c == '"') {
        in_str = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
      ++p;
    }
    size_t elem_end = p;
    while (elem_end > elem_begin &&
           std::isspace(static_cast<unsigned char>(raw[elem_end - 1]))) {
      --elem_end;
    }
    if (idx == want) return raw.substr(elem_begin, elem_end - elem_begin);
    ++idx;
    if (p < raw.size() && raw[p] == ',') ++p;
    if (p < raw.size() && raw[p] == ']') return {};
  }
  return {};
}

}  // namespace

Result<std::string> MisonParser::ExtractRaw(std::string_view json,
                                            const JsonPath& path) {
  StructuralIndex index(json);
  if (index.malformed()) {
    return Status::ParseError("malformed JSON record");
  }

  // Walk the path. `span` is the raw text of the current container relative
  // to the original record; `span_offset` its offset within `json` so that
  // colon positions remain comparable.
  std::string_view span = json;
  size_t span_offset = 0;
  uint32_t level = 1;  // members of the top-level object are at level 1

  for (size_t si = 0; si < path.steps().size(); ++si) {
    const JsonPathStep& step = path.steps()[si];
    if (step.kind == JsonPathStep::Kind::kField) {
      SpeculationKey key{level, step.field};
      int64_t speculative = -1;
      if (auto it = pattern_.find(key); it != pattern_.end()) {
        speculative = it->second;
      }
      bool used_speculation = false;
      const int64_t ci = index.FindField(span_offset, span_offset + span.size(),
                                         level, step.field, speculative,
                                         &used_speculation);
      if (used_speculation) {
        ++speculation_hits_;
      } else if (speculative >= 0) {
        ++speculation_misses_;
      }
      if (ci < 0) {
        return Status::NotFound("field '" + step.field + "' not present");
      }
      pattern_[key] = OrdinalOf(index, static_cast<size_t>(ci), span_offset,
                                span_offset + span.size());
      std::string_view raw = index.RawValueAfter(static_cast<size_t>(ci));
      span_offset = static_cast<size_t>(raw.data() - json.data());
      span = raw;
      if (!raw.empty() && raw.front() == '{') ++level;
    } else {
      std::string_view elem = ArrayElementRaw(span, step.index);
      if (elem.empty()) {
        return Status::NotFound("array index out of range in " +
                                path.ToString());
      }
      span_offset = static_cast<size_t>(elem.data() - json.data());
      span = elem;
      if (!elem.empty() && elem.front() == '{') ++level;
      // Note: element levels stay consistent because the structural index
      // counts only brace nesting, which we mirrored above.
    }
  }
  return std::string(span);
}

Result<std::string> RenderRawJsonScalar(std::string_view raw) {
  if (raw.empty()) return Status::NotFound("empty raw value");
  if (raw.front() == '"') {
    // Unescape through the DOM string parser for correctness.
    MAXSON_ASSIGN_OR_RETURN(JsonValue v, ParseJson(raw));
    return v.string_value();
  }
  // Non-integral numbers are canonicalized so both get_json_object backends
  // render the same text ("38.06" whether the raw was "38.060" or not).
  const bool looks_numeric =
      raw.front() == '-' || (raw.front() >= '0' && raw.front() <= '9');
  if (looks_numeric &&
      raw.find_first_of(".eE") != std::string_view::npos) {
    const std::string token(raw);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == token.c_str() + token.size()) {
      return json::ShortestDoubleString(d);
    }
  }
  return std::string(raw);
}

Result<std::string> MisonParser::Extract(std::string_view json,
                                         const JsonPath& path) {
  MAXSON_ASSIGN_OR_RETURN(std::string raw, ExtractRaw(json, path));
  return RenderRawJsonScalar(raw);
}

}  // namespace maxson::json
