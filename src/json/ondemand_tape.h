#ifndef MAXSON_JSON_ONDEMAND_TAPE_H_
#define MAXSON_JSON_ONDEMAND_TAPE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"

// Internal tape representation of the on-demand parsing tier. Only
// src/json/ may include this header (tools/lint.py, ondemand-layering
// rule): the tape entry layout is a private contract between the builder
// and the cursor in ondemand_parser.cc, and leaking it would freeze it.
// Everything else goes through json/ondemand_parser.h.

namespace maxson::json::ondemand_internal {

/// One structural position outside any string literal: ':' ',' '{' '}'
/// '[' ']'. Container entries carry the tape index of their partner, which
/// is what makes skipping a sibling subtree O(1).
struct TapeEntry {
  uint32_t pos;    // byte offset in the record
  uint32_t match;  // open<->close partner tape index; unused for ':' ','
  char kind;       // the structural character itself
};

/// A string literal: byte offsets of its opening and closing quotes.
struct StringSpan {
  uint32_t begin;
  uint32_t end;
};

/// Reusable per-record scratch for the on-demand tier: the classification
/// bitmaps, the structural tape, and the string spans (ascending by
/// `begin`; key lookup binary-searches them). One instance per worker —
/// Build clears and refills, so the vectors' capacity amortizes across the
/// records of a scan split.
struct StructuralTape {
  std::string_view text;
  std::vector<uint64_t> quotes;
  std::vector<uint64_t> backslashes;
  std::vector<uint64_t> structurals;
  std::vector<uint64_t> string_mask;
  std::vector<TapeEntry> entries;
  std::vector<StringSpan> strings;
  std::vector<uint32_t> stack;     // open-container work stack for Build
  bool root_is_container = false;  // false: scalar root, tape unused

  /// Validates `text` (which must outlive the tape) with json::ValidateJson
  /// and, when the root is a container, builds the tape over it. A record
  /// the validator rejects returns the DOM parser's own ParseError, so the
  /// tape only ever describes a document the DOM accepts, and the walk
  /// below it needs no error checks of its own (DESIGN.md, "On-demand
  /// parsing tier").
  Status Build(std::string_view text);
};

}  // namespace maxson::json::ondemand_internal

#endif  // MAXSON_JSON_ONDEMAND_TAPE_H_
