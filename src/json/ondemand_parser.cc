#include "json/ondemand_parser.h"

#include <algorithm>

#include "json/dom_parser.h"
#include "simd/kernels.h"

namespace maxson::json {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// True when the number token `s` renders as itself: an int64 the DOM
/// keeps as an integer and prints back unchanged (no "-0", no leading
/// zeros, at most 18 digits so it cannot overflow).
bool IsPlainInteger(std::string_view s) {
  const std::string_view digits = s.substr(s[0] == '-' ? 1 : 0);
  if (digits.empty() || digits.size() > 18) return false;
  if (digits[0] == '0' && s.size() > 1) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

OndemandParser::OndemandParser(const std::vector<JsonPath>& paths) {
  Compile(paths);
}

void OndemandParser::Compile(const std::vector<JsonPath>& paths) {
  trie_.assign(1, TrieNode{});
  not_found_.clear();
  results_.clear();
  // The child of an edge list for `key`, appending a new node's id if new.
  const auto child = [this](auto& edges, const auto& key) {
    for (const auto& [k, id] : edges) {
      if (k == key) return id;
    }
    edges.emplace_back(key, static_cast<uint32_t>(trie_.size()));
    return edges.back().second;
  };
  for (uint32_t p = 0; p < paths.size(); ++p) {
    uint32_t node = 0;
    for (const JsonPathStep& step : paths[p].steps()) {
      node = step.kind == JsonPathStep::Kind::kField
                 ? child(trie_[node].fields, step.field)
                 : child(trie_[node].indexes, step.index);
      if (node == trie_.size()) trie_.emplace_back();
    }
    trie_[node].ends.push_back(p);
    not_found_.push_back(
        Status::NotFound("JSONPath " + paths[p].ToString() + " not present"));
    results_.emplace_back(not_found_.back());
  }
  for (TrieNode& n : trie_) {
    std::sort(n.fields.begin(), n.fields.end());
    std::sort(n.indexes.begin(), n.indexes.end());
  }
  found_.assign(trie_.size(), Span{});
}

Status OndemandParser::BuildTape(std::string_view record) {
  text_ = record;
  tape_.clear();
  open_stack_.clear();
  root_is_container_ = false;
  MAXSON_RETURN_NOT_OK(ValidateJson(record));

  const size_t n = record.size();
  const char root = record[simd::SkipWhitespace(record.data(), n, 0)];
  if (root != '{' && root != '[') return Status::Ok();  // scalar root
  root_is_container_ = true;

  const size_t words = simd::BitmapWords(n);
  quotes_.resize(words);
  backslashes_.resize(words);
  structurals_.resize(words);
  simd::ClassifyJsonFull(record.data(), n, quotes_.data(),
                         backslashes_.data(), structurals_.data());

  // Walk the structural positions outside strings in order, linking every
  // container open to its close. The string mask drops escaped quotes
  // first, threading escape and quote state across bitmap words. The
  // validator has already proven the containers balanced and the root the
  // only value, so the root open is the first entry and its close the last.
  uint64_t carry = 0;
  uint64_t parity = 0;
  for (size_t w = 0; w < words; ++w) {
    const uint64_t escaped = simd::EscapedPositions(backslashes_[w], &carry);
    uint64_t s = structurals_[w] &
                 ~simd::StringMaskWord(quotes_[w] & ~escaped, &parity);
    while (s != 0) {
      const size_t pos =
          w * simd::kWordBits + static_cast<size_t>(__builtin_ctzll(s));
      s &= s - 1;
      const char c = record[pos];
      TapeEntry e{static_cast<uint32_t>(pos), 0, c};
      if (c == '{' || c == '[') {
        open_stack_.push_back(static_cast<uint32_t>(tape_.size()));
      } else if (c == '}' || c == ']') {
        const uint32_t oi = open_stack_.back();
        open_stack_.pop_back();
        tape_[oi].match = static_cast<uint32_t>(tape_.size());
        e.match = oi;
      }
      tape_.push_back(e);
    }
  }
  return Status::Ok();
}

void OndemandParser::Walk(std::string_view record) {
  const Status built = BuildTape(record);
  if (!built.ok()) {
    for (Result<std::string>& r : results_) r = built;
    return;
  }
  if (root_is_container_) ++records_indexed_;
  Resolve(0, root_is_container_ ? Container(0)
                                : Span{Span::kAbsent, 0, record.size()});
}

Result<std::string> OndemandParser::Extract(std::string_view json,
                                            const JsonPath& path) {
  Compile({path});
  Walk(json);
  return std::move(results_[0]);
}

void OndemandParser::Resolve(uint32_t node, const Span& value) {
  const TrieNode& n = trie_[node];
  for (uint32_t p : n.ends) {
    results_[p] = value.begin == Span::kAbsent
                      ? Result<std::string>(not_found_[p])
                      : Render(value);
  }
  // Children absent from `value` resolve as absent, down to their ends.
  for (const auto& [key, child] : n.fields) found_[child] = Span{};
  for (const auto& [index, child] : n.indexes) found_[child] = Span{};
  const char kind =
      value.open == Span::kAbsent ? 0 : tape_[value.open].kind;
  if (kind == '{' && !n.fields.empty()) MatchMembers(n, value.open);
  if (kind == '[' && !n.indexes.empty()) MatchElements(n, value.open);
  for (const auto& [key, child] : n.fields) Resolve(child, found_[child]);
  for (const auto& [index, child] : n.indexes) Resolve(child, found_[child]);
}

/// Scans every member of the object whose open entry is `open` once, left
/// to right, so a later duplicate key overwrites an earlier match. The
/// tape is of a validated record, so each member is exactly key ':' value,
/// followed by ',' or the object's close, and its key is the string
/// between the preceding '{' or ',' and its ':'.
void OndemandParser::MatchMembers(const TrieNode& node, size_t open) {
  const std::vector<TapeEntry>& es = tape_;
  const size_t close = es[open].match;
  size_t i = open + 1;
  std::string decoded;
  while (i < close) {
    const size_t key_begin =
        simd::SkipWhitespace(text_.data(), es[i].pos, es[i - 1].pos + 1);
    size_t key_end = es[i].pos;  // one past the key's closing quote
    while (IsSpace(text_[key_end - 1])) --key_end;
    const bool nested = es[i + 1].kind == '{' || es[i + 1].kind == '[';
    const Span value =
        nested ? Container(i + 1)
               : Span{Span::kAbsent, es[i].pos + 1, es[i + 1].pos};
    const size_t next = nested ? es[i + 1].match + 1 : i + 1;
    std::string_view key =
        text_.substr(key_begin + 1, key_end - key_begin - 2);
    if (key.find('\\') != std::string_view::npos) {
      decoded = ParseJson(text_.substr(key_begin, key_end - key_begin))
                    ->string_value();
      key = decoded;
    }
    const auto it = std::lower_bound(
        node.fields.begin(), node.fields.end(), key,
        [](const auto& field, std::string_view k) { return field.first < k; });
    if (it != node.fields.end() && it->first == key) {
      found_[it->second] = value;
    } else if (value.open != Span::kAbsent) {
      skipped_bytes_ += value.end - value.begin;
    }
    i = next + 1;  // past the ',' (or the close, ending the loop)
  }
}

/// Visits the elements of the array whose open entry is `open` up to the
/// largest requested index. Elements of a validated record are separated
/// by exactly one ','.
void OndemandParser::MatchElements(const TrieNode& node, size_t open) {
  const std::vector<TapeEntry>& es = tape_;
  const size_t close = es[open].match;
  size_t i = open + 1;
  size_t elem_begin = es[open].pos + 1;
  size_t want = 0;
  for (int64_t idx = 0; want < node.indexes.size(); ++idx) {
    const bool nested = i < close && (es[i].kind == '{' || es[i].kind == '[');
    const Span value =
        nested ? Container(i) : Span{Span::kAbsent, elem_begin, es[i].pos};
    const size_t sep = nested ? es[i].match + 1 : i;
    // A sole "element" that is all whitespace is an empty array.
    if (!nested && idx == 0 && sep == close &&
        simd::SkipWhitespace(text_.data(), value.end, value.begin) >=
            value.end) {
      return;
    }
    if (node.indexes[want].first == idx) {
      found_[node.indexes[want++].second] = value;
    }
    if (sep == close) return;
    elem_begin = es[sep].pos + 1;
    i = sep + 1;
  }
}

/// The get_json_object rendering of `value`; NotFound-free by
/// construction (an unmatched value never reaches here).
Result<std::string> OndemandParser::Render(const Span& value) const {
  size_t begin = value.begin;
  size_t end = value.end;
  if (value.open == Span::kAbsent) {
    begin = simd::SkipWhitespace(text_.data(), end, begin);
    while (IsSpace(text_[end - 1])) --end;
    const std::string_view raw = text_.substr(begin, end - begin);
    if (raw[0] == '"') {
      const std::string_view inner = raw.substr(1, raw.size() - 2);
      if (inner.find('\\') == std::string_view::npos) {
        return std::string(inner);
      }
    } else if (raw[0] == 't' || raw[0] == 'f' || raw[0] == 'n' ||
               IsPlainInteger(raw)) {
      return std::string(raw);
    }
  }
  MAXSON_ASSIGN_OR_RETURN(const JsonValue parsed,
                          ParseJson(text_.substr(begin, end - begin)));
  return RenderGetJsonObjectResult(parsed);
}

}  // namespace maxson::json
