#ifndef MAXSON_JSON_ONDEMAND_PARSER_H_
#define MAXSON_JSON_ONDEMAND_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "json/json_path.h"
#include "json/ondemand_tape.h"

namespace maxson::json {

/// Forward-only, lazily-materializing JSON parser in the spirit of
/// On-Demand (Keiser & Lemire): one SIMD classification pass
/// (simd::ClassifyJsonFull) builds a per-record tape of structural
/// positions, and JSONPaths are resolved by cursoring through the tape —
/// sibling subtrees the query never asked for are skipped via the tape's
/// open/close match links without materializing them. This is the
/// engine's default uncached extraction tier.
///
/// Contract vs the DOM baseline (json::GetJsonObject): every call returns
/// exactly what GetJsonObject returns for the same record and path — the
/// same bytes on success, the same status code on error, and the same
/// NotFound message for a missing path.
///   - Validation: every tape build first runs json::ValidateJson, which is
///     the DOM parser's own grammar with a sink that builds nothing. A
///     record is indexed only if the DOM would accept it; any other record
///     returns the DOM's ParseError, including garbage inside subtrees the
///     query skips.
///   - Rendering: requested values are materialized by running the DOM
///     parser on exactly the extracted span and rendering with
///     RenderGetJsonObjectResult. Duplicate keys resolve to the last
///     occurrence, matching JsonValue::Set overwrite.
///   - Memo: the parser keeps an owned copy of the last record it indexed,
///     with its tape and build status. A call on the same bytes (a row's k
///     get_json_object calls) reuses them, so one row pays one validation
///     and one classification pass. The key is the bytes, not the
///     address, so a caller may reuse or mutate its buffer between calls.
/// The engine still falls back to the DOM parser on any ParseError, so
/// query results never depend on this tier.
class OndemandParser {
 public:
  OndemandParser() = default;

  /// Resolves `path` within `json`, rendered get_json_object-style.
  Result<std::string> Extract(std::string_view json, const JsonPath& path);

  /// Telemetry across all Extract calls: tapes built for
  /// container-rooted records (a memo hit builds none), and bytes the
  /// cursor skipped past without materializing, summed per call (record
  /// size minus materialized value spans and compared keys).
  uint64_t records_indexed() const { return records_indexed_; }
  uint64_t skipped_bytes() const { return skipped_bytes_; }

  /// Adds another parser's telemetry to this one; same merge discipline as
  /// MisonParser::AbsorbTelemetry (one parser per worker, folded in order).
  void AbsorbTelemetry(const OndemandParser& other) {
    records_indexed_ += other.records_indexed_;
    skipped_bytes_ += other.skipped_bytes_;
  }

 private:
  /// Validates and indexes `json` into tape_, or reuses the memo when
  /// `json` has the same bytes as the last record. Returns the build
  /// status (OK, or the DOM's ParseError for the record).
  const Status& Index(std::string_view json);

  ondemand_internal::StructuralTape tape_;  // built over memo_text_
  std::string memo_text_;
  Status memo_status_;
  bool memo_valid_ = false;
  uint64_t records_indexed_ = 0;
  uint64_t skipped_bytes_ = 0;
};

}  // namespace maxson::json

#endif  // MAXSON_JSON_ONDEMAND_PARSER_H_
