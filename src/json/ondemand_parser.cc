#include "json/ondemand_parser.h"

#include <algorithm>

#include "json/dom_parser.h"
#include "simd/kernels.h"

namespace maxson::json {

namespace ondemand_internal {

Status StructuralTape::Build(std::string_view record) {
  text = record;
  entries.clear();
  strings.clear();
  stack.clear();
  root_is_container = false;
  MAXSON_RETURN_NOT_OK(ValidateJson(record));

  const size_t n = record.size();
  const char root = record[simd::SkipWhitespace(record.data(), n, 0)];
  if (root != '{' && root != '[') return Status::Ok();  // scalar root
  root_is_container = true;

  const size_t words = simd::BitmapWords(n);
  quotes.resize(words);
  backslashes.resize(words);
  structurals.resize(words);
  string_mask.resize(words);
  simd::ClassifyJsonFull(record.data(), n, quotes.data(), backslashes.data(),
                         structurals.data());

  // Phase 2: drop escaped quotes, derive the string mask, and collect the
  // string spans (ascending by construction — quote pairs alternate
  // open/close left to right, threading across bitmap words).
  uint64_t carry = 0;
  uint64_t parity = 0;
  bool in_string = false;
  uint32_t open_quote = 0;
  for (size_t w = 0; w < words; ++w) {
    const uint64_t escaped = simd::EscapedPositions(backslashes[w], &carry);
    uint64_t q = quotes[w] & ~escaped;
    string_mask[w] = simd::StringMaskWord(q, &parity);
    while (q != 0) {
      const uint32_t pos = static_cast<uint32_t>(
          w * simd::kWordBits + static_cast<size_t>(__builtin_ctzll(q)));
      q &= q - 1;
      if (!in_string) {
        open_quote = pos;
        in_string = true;
      } else {
        strings.push_back({open_quote, pos});
        in_string = false;
      }
    }
  }

  // Phase 3: walk the structural positions outside strings in order,
  // linking every container open to its close. The link is what lets the
  // cursor hop over an entire sibling subtree in one step. The validator
  // has already proven the containers balanced and the root the only
  // value, so the root open is the first entry and its close the last.
  for (size_t w = 0; w < words; ++w) {
    uint64_t s = structurals[w] & ~string_mask[w];
    while (s != 0) {
      const size_t pos =
          w * simd::kWordBits + static_cast<size_t>(__builtin_ctzll(s));
      s &= s - 1;
      const char c = record[pos];
      TapeEntry e{static_cast<uint32_t>(pos), 0, c};
      if (c == '{' || c == '[') {
        stack.push_back(static_cast<uint32_t>(entries.size()));
      } else if (c == '}' || c == ']') {
        const uint32_t oi = stack.back();
        stack.pop_back();
        entries[oi].match = static_cast<uint32_t>(entries.size());
        e.match = oi;
      }
      entries.push_back(e);
    }
  }
  return Status::Ok();
}

}  // namespace ondemand_internal

namespace {

using ondemand_internal::StringSpan;
using ondemand_internal::StructuralTape;
using ondemand_internal::TapeEntry;

constexpr size_t kNone = ~size_t{0};

/// Cursor node: a container (tape index of its open entry) or a terminal
/// span; `begin`/`end` always bound the node's raw bytes.
struct Node {
  size_t open = kNone;
  size_t begin = 0;
  size_t end = 0;
};

/// Compares the string literal `key` (offsets of its quotes) against the
/// queried field. Unescaped keys compare raw; escaped keys decode through
/// the DOM string parser so escape semantics (including \uXXXX) match the
/// baseline exactly.
Result<bool> KeyEquals(const StructuralTape& t, const StringSpan& key,
                       std::string_view field, uint64_t* touched) {
  const std::string_view raw =
      t.text.substr(key.begin + 1, key.end - key.begin - 1);
  *touched += raw.size();
  if (raw.find('\\') == std::string_view::npos) {
    return raw == field;
  }
  MAXSON_ASSIGN_OR_RETURN(
      const JsonValue decoded,
      ParseJson(t.text.substr(key.begin, key.end - key.begin + 1)));
  return decoded.is_string() && decoded.string_value() == field;
}

/// The value node of member `field` directly inside the object whose open
/// entry is `open`. Every member is scanned and the LAST key match wins,
/// replicating the DOM's duplicate-key overwrite (JsonValue::Set).
/// NotFound (empty message — the caller owns the path text) when absent.
/// The tape is of a validated record, so each member is exactly
/// key ':' value, followed by ',' or the object's close.
Result<Node> FindMember(const StructuralTape& t, size_t open,
                        std::string_view field, uint64_t* touched) {
  const std::vector<TapeEntry>& es = t.entries;
  const size_t close = es[open].match;
  size_t i = open + 1;
  Node found;
  bool have = false;
  while (i < close) {
    const uint32_t colon_pos = es[i].pos;
    // The member's key is the last string span before its colon (es[i]).
    auto it = std::lower_bound(
        t.strings.begin(), t.strings.end(), colon_pos,
        [](const StringSpan& s, uint32_t p) { return s.begin < p; });
    --it;
    // Value: a container hops to its close link; an atom/string runs to
    // the next structural entry, which is this level's ',' or close.
    Node val;
    size_t next_i;
    if (es[i + 1].kind == '{' || es[i + 1].kind == '[') {
      val.open = i + 1;
      val.begin = es[i + 1].pos;
      val.end = es[es[i + 1].match].pos + 1;
      next_i = es[i + 1].match + 1;
    } else {
      val.begin = colon_pos + 1;
      val.end = es[i + 1].pos;
      next_i = i + 1;
    }
    MAXSON_ASSIGN_OR_RETURN(const bool eq, KeyEquals(t, *it, field, touched));
    if (eq) {
      found = val;
      have = true;
    }
    i = next_i + 1;  // past the ',' (or the close, ending the loop)
  }
  if (!have) return Status::NotFound("");
  return found;
}

/// The value node of element `index` inside the array whose open entry is
/// `open`. NotFound (empty message) when the index is out of range.
/// Elements of a validated record are separated by exactly one ','.
Result<Node> FindElement(const StructuralTape& t, size_t open, int64_t index) {
  const std::vector<TapeEntry>& es = t.entries;
  const size_t close = es[open].match;
  size_t i = open + 1;
  size_t elem_begin = es[open].pos + 1;
  int64_t idx = 0;
  while (true) {
    Node val;
    size_t sep_i;
    if (i < close && (es[i].kind == '{' || es[i].kind == '[')) {
      val.open = i;
      val.begin = es[i].pos;
      val.end = es[es[i].match].pos + 1;
      sep_i = es[i].match + 1;
    } else {
      val.begin = elem_begin;
      sep_i = i;
      val.end = es[sep_i].pos;
    }
    if (idx == 0 && sep_i == close && val.open == kNone) {
      // Sole "element" running straight to the close: an empty array when
      // it is all whitespace.
      const size_t nonws =
          simd::SkipWhitespace(t.text.data(), val.end, val.begin);
      if (nonws >= val.end) return Status::NotFound("");
    }
    if (idx == index) return val;
    if (sep_i == close) return Status::NotFound("");
    elem_begin = es[sep_i].pos + 1;
    i = sep_i + 1;
    ++idx;
  }
}

/// Cursors `path` through the tape and materializes the requested value:
/// the DOM parser runs on exactly the extracted span, so rendering is
/// byte-identical to the baseline. A scalar root has no tape: only `$`
/// resolves on it, to the whole record.
Result<std::string> ResolveOnTape(const StructuralTape& t,
                                  const JsonPath& path, uint64_t* touched) {
  const std::vector<TapeEntry>& es = t.entries;
  Node node;
  if (t.root_is_container) {
    node.open = 0;
    node.begin = es[0].pos;
    node.end = es[es[0].match].pos + 1;
  } else {
    node.end = t.text.size();
    *touched += node.end;  // nothing to skip in a scalar document
  }
  for (const JsonPathStep& step : path.steps()) {
    if (node.open == kNone) return Status::NotFound("");  // scalar mid-path
    const char kind = es[node.open].kind;
    if (step.kind == JsonPathStep::Kind::kField) {
      if (kind != '{') return Status::NotFound("");
      MAXSON_ASSIGN_OR_RETURN(node,
                              FindMember(t, node.open, step.field, touched));
    } else {
      if (kind != '[') return Status::NotFound("");
      MAXSON_ASSIGN_OR_RETURN(node, FindElement(t, node.open, step.index));
    }
  }
  const std::string_view span =
      t.text.substr(node.begin, node.end - node.begin);
  *touched += span.size();
  MAXSON_ASSIGN_OR_RETURN(const JsonValue value, ParseJson(span));
  return RenderGetJsonObjectResult(value);
}

/// Rewrites the internal empty-message NotFound into the exact message the
/// DOM path (GetJsonObject) produces, so both tiers are indistinguishable
/// to callers.
Result<std::string> WithPathMessage(Result<std::string> r,
                                    const JsonPath& path) {
  if (!r.ok() && r.status().code() == StatusCode::kNotFound) {
    return Status::NotFound("JSONPath " + path.ToString() + " not present");
  }
  return r;
}

}  // namespace

const Status& OndemandParser::Index(std::string_view json) {
  if (memo_valid_ && json == memo_text_) {
    // Re-aim the tape at the owned copy: a moved parser's string may have
    // moved its bytes (short strings live inside the object).
    tape_.text = memo_text_;
    return memo_status_;
  }
  memo_text_.assign(json);
  memo_status_ = tape_.Build(memo_text_);
  memo_valid_ = true;
  if (memo_status_.ok() && tape_.root_is_container) ++records_indexed_;
  return memo_status_;
}

Result<std::string> OndemandParser::Extract(std::string_view json,
                                            const JsonPath& path) {
  const Status& indexed = Index(json);
  if (!indexed.ok()) return indexed;
  uint64_t touched = 0;
  Result<std::string> r =
      WithPathMessage(ResolveOnTape(tape_, path, &touched), path);
  if (json.size() > touched) skipped_bytes_ += json.size() - touched;
  return r;
}

}  // namespace maxson::json
