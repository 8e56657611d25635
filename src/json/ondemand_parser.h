#ifndef MAXSON_JSON_ONDEMAND_PARSER_H_
#define MAXSON_JSON_ONDEMAND_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "json/json_path.h"

namespace maxson::json {

/// Forward-only, lazily-materializing JSON parser in the spirit of
/// On-Demand (Keiser & Lemire), extended from one path to a trie of paths:
/// one SIMD classification pass (simd::ClassifyJsonFull) builds a
/// per-record tape of structural positions, each container open linked to
/// its close, and one forward walk over the tape resolves every compiled
/// path. The walk visits each object level once, matching member keys
/// against the trie's children, and hops over every subtree no path
/// descends into. This is the engine's default uncached extraction tier.
///
/// Contract vs the DOM baseline (json::GetJsonObject): result i is exactly
/// what GetJsonObject returns for the same record and path i — the same
/// bytes on success, the same status code on error, and the same NotFound
/// message for a missing path.
///   - Validation: every tape build first runs json::ValidateJson, which is
///     the DOM parser's own grammar with a sink that builds nothing. A
///     record is walked only if the DOM would accept it, so the walk needs
///     no error checks of its own; any other record returns the DOM's
///     ParseError for every path, including garbage inside subtrees the
///     walk skips.
///   - Rendering: a value is returned as its raw bytes when those are
///     byte-identical to the DOM's rendering (an unescaped string's
///     contents, true/false/null, an integer without sign-zero or leading
///     zeros that fits int64); anything else — escaped strings, other
///     numbers, containers — runs the DOM parser on exactly its span and
///     renders with RenderGetJsonObjectResult. Duplicate keys resolve to
///     the last occurrence, matching JsonValue::Set overwrite, because the
///     walk sees the whole level before descending.
class OndemandParser {
 public:
  /// Compiles `paths` into the trie: paths sharing a prefix share its
  /// nodes, and identical paths share one.
  explicit OndemandParser(const std::vector<JsonPath>& paths = {});

  /// Validates and indexes `record` and resolves every compiled path in one
  /// walk; result(i) then holds path i's value or error until the next Walk.
  void Walk(std::string_view record);
  const Result<std::string>& result(size_t i) const { return results_[i]; }

  /// One path over `json`: compiles a one-path trie and walks it.
  Result<std::string> Extract(std::string_view json, const JsonPath& path);

  /// Telemetry across all walks: tapes built for container-rooted records,
  /// and bytes inside the subtrees the walk hopped over.
  uint64_t records_indexed() const { return records_indexed_; }
  uint64_t skipped_bytes() const { return skipped_bytes_; }

 private:
  /// A value in the record: a container (tape index of its open entry) or
  /// a scalar; `begin`/`end` bound its bytes. `begin == kAbsent` marks a
  /// trie child the walk has not matched at the current level.
  struct Span {
    static constexpr size_t kAbsent = ~size_t{0};
    size_t open = kAbsent;
    size_t begin = kAbsent;
    size_t end = 0;
  };
  /// One structural position outside any string literal: ':' ',' '{' '}'
  /// '[' ']'. A container entry carries its partner's tape index, which is
  /// what lets the walk hop over a sibling subtree in one step.
  struct TapeEntry {
    uint32_t pos;    // byte offset in the record
    uint32_t match;  // open<->close partner tape index; unused for ':' ','
    char kind;       // the structural character itself
  };
  struct TrieNode {
    std::vector<std::pair<std::string, uint32_t>> fields;  // sorted by key
    std::vector<std::pair<int64_t, uint32_t>> indexes;     // ascending
    std::vector<uint32_t> ends;  // paths that end at this node
  };

  void Compile(const std::vector<JsonPath>& paths);
  /// Validates `record` and, when its root is a container, rebuilds the
  /// tape over it; a rejected record returns the DOM's own ParseError.
  Status BuildTape(std::string_view record);
  /// The span of the container whose open entry is tape_[open].
  Span Container(size_t open) const {
    return Span{open, tape_[open].pos, tape_[tape_[open].match].pos + 1};
  }
  void Resolve(uint32_t node, const Span& value);
  void MatchMembers(const TrieNode& node, size_t open);
  void MatchElements(const TrieNode& node, size_t open);
  Result<std::string> Render(const Span& value) const;

  std::vector<TrieNode> trie_;
  std::vector<Span> found_;           // per trie node, for the current level
  std::vector<Status> not_found_;     // per path: GetJsonObject's NotFound
  std::vector<Result<std::string>> results_;
  // Per-record scratch, refilled by BuildTape so capacity amortizes.
  std::string_view text_;
  std::vector<uint64_t> quotes_;  // simd::ClassifyJsonFull bitmaps
  std::vector<uint64_t> backslashes_;
  std::vector<uint64_t> structurals_;
  std::vector<TapeEntry> tape_;
  std::vector<uint32_t> open_stack_;
  bool root_is_container_ = false;  // false: scalar root, tape unused
  uint64_t records_indexed_ = 0;
  uint64_t skipped_bytes_ = 0;
};

}  // namespace maxson::json

#endif  // MAXSON_JSON_ONDEMAND_PARSER_H_
