#ifndef MAXSON_ENGINE_PATH_EXTRACTOR_H_
#define MAXSON_ENGINE_PATH_EXTRACTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "json/json_path.h"
#include "json/json_value.h"
#include "json/mison_parser.h"
#include "xml/xml_path.h"

namespace maxson::engine {

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
/// rest are JSONPaths. Under kDom, Load parses the record once into a DOM
/// that every JSONPath evaluates against; under kMison every JSONPath
/// extracts through the extractor's one speculative parser. Not
/// thread-safe: each worker uses its own copy.
class PathExtractor {
 public:
  PathExtractor(const std::vector<std::string>& paths, JsonBackend backend);

  size_t size() const { return paths_.size(); }
  /// OK, or the error parsing path i's text gave; such a path never
  /// yields a value.
  const Status& status(size_t i) const { return paths_[i].status; }
  /// True when path i evaluates against Load's shared DOM (a JSONPath
  /// under kDom), so the cost of that parse is part of its cost.
  bool reads_dom(size_t i) const { return paths_[i].reads_dom; }

  /// Makes `record` the current record (parsing it into the shared DOM
  /// when some path reads it). The bytes must outlive the Extract and Node
  /// calls that follow.
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
    json::JsonPath json;
    xml::XmlPath xml;
  };
  std::vector<Path> paths_;
  bool any_dom_ = false;
  std::string_view record_;
  json::JsonValue dom_;
  bool dom_ok_ = false;
  json::MisonParser mison_;
};

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_PATH_EXTRACTOR_H_
