#ifndef MAXSON_ENGINE_PATH_EXTRACTOR_H_
#define MAXSON_ENGINE_PATH_EXTRACTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "json/json_path.h"
#include "json/json_value.h"
#include "json/mison_parser.h"
#include "json/ondemand_parser.h"
#include "storage/record_batch.h"
#include "xml/xml_path.h"

namespace maxson::engine {

struct PathSlot;
struct QueryMetrics;

/// Which JSON parser backs get_json_object, mirroring the paper's Fig. 15
/// configurations: kDom = Spark+Jackson (full deserialization), kMison =
/// Spark+Mison (structural-index projection).
enum class JsonBackend { kDom, kMison };

/// Derives the values of a fixed list of paths from one raw record at a
/// time, rendered exactly as get_json_object (or get_xml_object) renders
/// them. It is the one place that decides how a path value comes out of a
/// raw record: the midnight sampler measures through it, the cache build
/// writes through it and the corruption fallback re-derives through it, so
/// a cached value and its re-derivation agree by construction.
///
/// Path texts starting with '/' are XPaths (one GetXmlObject per path); the
/// rest are JSONPaths. In on-demand mode Load resolves every JSONPath in
/// one walk over the record's validated tape (json::OndemandParser), which
/// is how the engine evaluates get_json_object; otherwise, under kDom,
/// Load parses the record once into a DOM that every JSONPath evaluates
/// against, and under kMison every JSONPath extracts through the
/// extractor's one speculative parser. Not thread-safe: each worker uses
/// its own copy.
class PathExtractor {
 public:
  PathExtractor(const std::vector<std::string>& paths, JsonBackend backend,
                bool ondemand = false);

  size_t size() const { return paths_.size(); }
  /// OK, or the error parsing path i's text gave; such a path never
  /// yields a value.
  const Status& status(size_t i) const { return paths_[i].status; }
  /// True when path i evaluates against Load's shared DOM (a JSONPath
  /// under kDom), so the cost of that parse is part of its cost.
  bool reads_dom(size_t i) const { return paths_[i].reads_dom; }

  /// Makes `record` the current record (walking it, or parsing it into the
  /// shared DOM, when some path needs that). The bytes must outlive the
  /// Extract and Node calls that follow.
  void Load(std::string_view record);

  /// Path i's value in the current record. Any non-OK result is NULL: the
  /// path is absent, the record does not parse, or the path's text did not.
  Result<std::string> Extract(size_t i);

  /// Path i's node in the current record's DOM; null when the path is
  /// absent, the record does not parse, or the path does not read the DOM.
  const json::JsonValue* Node(size_t i) const {
    return dom_ok_ && paths_[i].reads_dom ? paths_[i].json.Evaluate(dom_)
                                          : nullptr;
  }

 private:
  struct Path {
    Status status;
    bool is_xml = false;
    bool reads_dom = false;
    int walk = -1;  // result index in the on-demand walk; -1 = not walked
    json::JsonPath json;
    xml::XmlPath xml;
  };
  std::vector<Path> paths_;
  bool any_dom_ = false;
  std::string_view record_;
  json::JsonValue dom_;
  bool dom_ok_ = false;
  json::MisonParser mison_;
  bool any_walk_ = false;
  json::OndemandParser walker_;
};

/// One operator scope's bound get_json_object/get_xml_object sites
/// (PhysicalPlan::paths) over one input batch: an on-demand PathExtractor
/// per source column, which walks a row on that row's first reference, so
/// a row costs one walk per column however many sites read it. Copied per
/// worker, like the extractor.
class ScopePaths {
 public:
  ScopePaths() = default;
  explicit ScopePaths(const std::vector<PathSlot>& slots);

  bool empty() const { return slots_.empty(); }

  /// Site `slot`'s value in `row` of `batch`, as get_json_object (or
  /// get_xml_object) returns it: NULL for a NULL record, a path text that
  /// does not parse, or any error. Each call past those first two counts
  /// one record parsed into `metrics` (may be null), as the builtin does,
  /// and each row walked one ondemand_records.
  storage::Value Get(size_t slot, const storage::RecordBatch& batch,
                     size_t row, QueryMetrics* metrics);

 private:
  struct Source {
    int column;
    PathExtractor extractor;
    const storage::RecordBatch* batch = nullptr;  // the loaded row's batch
    size_t row = 0;
  };
  std::vector<Source> sources_;
  std::vector<std::pair<size_t, size_t>> slots_;  // (source, path index)
};

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_PATH_EXTRACTOR_H_
