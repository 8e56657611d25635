#include "engine/path_extractor.h"

#include <utility>

#include "json/dom_parser.h"

namespace maxson::engine {

PathExtractor::PathExtractor(const std::vector<std::string>& paths,
                             JsonBackend backend)
    : paths_(paths.size()) {
  for (size_t i = 0; i < paths.size(); ++i) {
    Path& p = paths_[i];
    p.is_xml = xml::IsXmlPathText(paths[i]);
    if (p.is_xml) {
      auto parsed = xml::XmlPath::Parse(paths[i]);
      p.status = parsed.status();
      if (parsed.ok()) p.xml = std::move(*parsed);
    } else {
      auto parsed = json::JsonPath::Parse(paths[i]);
      p.status = parsed.status();
      if (parsed.ok()) p.json = std::move(*parsed);
    }
    p.reads_dom = p.status.ok() && !p.is_xml && backend == JsonBackend::kDom;
    any_dom_ |= p.reads_dom;
  }
}

void PathExtractor::Load(std::string_view record) {
  record_ = record;
  if (!any_dom_) return;
  Result<json::JsonValue> parsed = json::ParseJson(record);
  dom_ok_ = parsed.ok();
  if (dom_ok_) dom_ = std::move(*parsed);
}

Result<std::string> PathExtractor::Extract(size_t i) {
  const Path& p = paths_[i];
  if (!p.status.ok()) return p.status;
  if (p.is_xml) return xml::GetXmlObject(record_, p.xml);
  if (!p.reads_dom) return mison_.Extract(record_, p.json);
  const json::JsonValue* node = Node(i);
  if (node == nullptr) return Status::NotFound("path absent");
  return json::RenderGetJsonObjectResult(*node);
}

}  // namespace maxson::engine
