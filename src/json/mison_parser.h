#ifndef MAXSON_JSON_MISON_PARSER_H_
#define MAXSON_JSON_MISON_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "json/json_path.h"

namespace maxson::json {

/// Word-parallel structural index over one JSON record, after Mison
/// (Li et al., VLDB 2017).
///
/// Construction builds, with 64-bit bitwise operations (the scalar analogue
/// of Mison's SIMD phase):
///   1. backslash / quote bitmaps with escaped-quote removal,
///   2. the string mask via prefix-XOR over quote bits,
///   3. colon / brace bitmaps masked to structural (non-string) positions,
///   4. per-colon nesting levels from a single ordered walk of the braces.
///
/// Queries then locate a field's value without deserializing the record:
/// given an object span and level, the colons inside it are candidates; the
/// key preceding each candidate colon is compared against the queried field.
class StructuralIndex {
 public:
  /// Builds the index. `text` must outlive the index.
  explicit StructuralIndex(std::string_view text);

  std::string_view text() const { return text_; }

  /// Position of every structural colon, ascending, with its nesting level
  /// (level 1 = colon of a top-level object member).
  struct Colon {
    uint32_t pos;
    uint32_t level;
  };
  const std::vector<Colon>& colons() const { return colons_; }

  /// Finds the colon of member `field` directly inside the object spanning
  /// [span_begin, span_end) at nesting level `level`. `speculative_ordinal`,
  /// when >= 0, is tried first (pattern memoization); on key mismatch the
  /// query falls back to a full scan. Returns the colon index into colons(),
  /// or -1 when absent. `*used_speculation` reports whether the fast path
  /// hit (used by benchmarks to count speculation success).
  int64_t FindField(size_t span_begin, size_t span_end, uint32_t level,
                    std::string_view field, int64_t speculative_ordinal,
                    bool* used_speculation) const;

  /// Key text (unescaped content between quotes) preceding colon `ci`.
  std::string_view KeyBefore(size_t ci) const;

  /// Raw text span of the value following colon `ci`, trimmed of whitespace:
  /// from after the colon to the enclosing comma/brace at the same level.
  std::string_view RawValueAfter(size_t ci) const;

  /// True when the record contains structural errors (unbalanced braces or
  /// an unterminated string); queries on a malformed index return -1.
  bool malformed() const { return malformed_; }

 private:
  std::string_view text_;
  std::vector<Colon> colons_;
  bool malformed_ = false;
};

/// Projection-only JSON parser in the spirit of Mison/Pikkr: extracts the
/// values of requested JSONPaths from the raw byte stream via a structural
/// index, with speculative field-position memoization across records.
///
/// When the dataset's JSON pattern is stable the speculation hits and
/// extraction touches only the queried fields; when the schema varies the
/// speculation misses force full scans, which is the degradation the paper
/// observes for Mison on schema-variable data (Fig. 15 discussion).
class MisonParser {
 public:
  MisonParser() = default;

  /// Returns the raw value text (still JSON-encoded) of `path` within
  /// `json`, or kNotFound when the path does not resolve. Array subscripts
  /// are resolved by streaming over the raw array span.
  Result<std::string> ExtractRaw(std::string_view json, const JsonPath& path);

  /// Like ExtractRaw but renders in get_json_object style (strings
  /// unquoted, scalars as text).
  Result<std::string> Extract(std::string_view json, const JsonPath& path);

  /// Speculation telemetry across all Extract calls.
  uint64_t speculation_hits() const { return speculation_hits_; }
  uint64_t speculation_misses() const { return speculation_misses_; }

 private:
  struct SpeculationKey {
    uint32_t level;
    std::string field;
    bool operator==(const SpeculationKey& o) const {
      return level == o.level && field == o.field;
    }
  };
  struct SpeculationKeyHash {
    size_t operator()(const SpeculationKey& k) const {
      return std::hash<std::string>()(k.field) * 1315423911u ^ k.level;
    }
  };

  // Memoized ordinal (index among the colons of the enclosing span/level)
  // where each field was last found.
  std::unordered_map<SpeculationKey, int64_t, SpeculationKeyHash> pattern_;
  uint64_t speculation_hits_ = 0;
  uint64_t speculation_misses_ = 0;
};

/// Renders a raw JSON value span in get_json_object style: quoted strings
/// are unescaped, scalars/objects/arrays returned as their raw text.
Result<std::string> RenderRawJsonScalar(std::string_view raw);

}  // namespace maxson::json

#endif  // MAXSON_JSON_MISON_PARSER_H_
