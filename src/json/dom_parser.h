#ifndef MAXSON_JSON_DOM_PARSER_H_
#define MAXSON_JSON_DOM_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "json/json_value.h"

namespace maxson::json {

/// Full-deserialization recursive-descent JSON parser.
///
/// This is the repository's stand-in for Jackson, the default JSON parser in
/// SparkSQL: it materializes the complete DOM for every record, which is what
/// makes parsing dominate query time in the paper's Fig. 3 baseline.
///
/// Accepts standard JSON: objects, arrays, strings with escapes (including
/// \uXXXX with surrogate pairs encoded to UTF-8), integers, doubles,
/// true/false/null. Rejects trailing garbage.
Result<JsonValue> ParseJson(std::string_view text);

/// Runs ParseJson's grammar without building anything: OK exactly when
/// ParseJson(text) succeeds, otherwise the same ParseError ParseJson
/// returns. Allocates nothing on the accepting path, so the on-demand tier
/// can afford it on every record it indexes.
Status ValidateJson(std::string_view text);

/// Parser statistics counter shared by all parsers, used by the engine's
/// metrics plumbing to attribute time to the "Parse" phase.
struct ParseStats {
  uint64_t records_parsed = 0;
  uint64_t bytes_parsed = 0;

  void Add(const ParseStats& other) {
    records_parsed += other.records_parsed;
    bytes_parsed += other.bytes_parsed;
  }
};

}  // namespace maxson::json

#endif  // MAXSON_JSON_DOM_PARSER_H_
