#include "engine/path_extractor.h"

#include <utility>

#include "common/time_util.h"
#include "engine/plan.h"
#include "json/dom_parser.h"

namespace maxson::engine {

PathExtractor::PathExtractor(const std::vector<std::string>& paths,
                             JsonBackend backend, bool ondemand)
    : paths_(paths.size()) {
  std::vector<json::JsonPath> walked;
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
    if (p.status.ok() && !p.is_xml && ondemand) {
      p.walk = static_cast<int>(walked.size());
      walked.push_back(p.json);
    }
    p.reads_dom = p.status.ok() && !p.is_xml && !ondemand &&
                  backend == JsonBackend::kDom;
    any_dom_ |= p.reads_dom;
  }
  any_walk_ = !walked.empty();
  if (any_walk_) walker_ = json::OndemandParser(walked);
}

void PathExtractor::Load(std::string_view record) {
  record_ = record;
  if (any_walk_) walker_.Walk(record);
  if (!any_dom_) return;
  Result<json::JsonValue> parsed = json::ParseJson(record);
  dom_ok_ = parsed.ok();
  if (dom_ok_) dom_ = std::move(*parsed);
}

Result<std::string> PathExtractor::Extract(size_t i) {
  const Path& p = paths_[i];
  if (!p.status.ok()) return p.status;
  if (p.is_xml) return xml::GetXmlObject(record_, p.xml);
  if (p.walk >= 0) return walker_.result(static_cast<size_t>(p.walk));
  if (!p.reads_dom) return mison_.Extract(record_, p.json);
  const json::JsonValue* node = Node(i);
  if (node == nullptr) return Status::NotFound("path absent");
  return json::RenderGetJsonObjectResult(*node);
}

ScopePaths::ScopePaths(const std::vector<PathSlot>& slots) {
  std::vector<int> columns;
  std::vector<std::vector<std::string>> texts;
  for (const PathSlot& slot : slots) {
    size_t s = 0;
    while (s < columns.size() && columns[s] != slot.column) ++s;
    if (s == columns.size()) {
      columns.push_back(slot.column);
      texts.emplace_back();
    }
    slots_.emplace_back(s, texts[s].size());
    texts[s].push_back(slot.path);
  }
  for (size_t s = 0; s < columns.size(); ++s) {
    sources_.push_back(
        Source{columns[s], PathExtractor(texts[s], JsonBackend::kDom, true)});
  }
}

storage::Value ScopePaths::Get(size_t slot, const storage::RecordBatch& batch,
                               size_t row, QueryMetrics* metrics) {
  Source& source = sources_[slots_[slot].first];
  const size_t path = slots_[slot].second;
  const storage::ColumnVector& column =
      batch.column(static_cast<size_t>(source.column));
  if (column.IsNull(row) || !source.extractor.status(path).ok()) {
    return storage::Value::Null();
  }
  const std::string& record = column.GetString(row);
  Stopwatch timer;
  const bool first = source.batch != &batch || source.row != row;
  if (first) {
    source.extractor.Load(record);
    source.batch = &batch;
    source.row = row;
  }
  Result<std::string> value = source.extractor.Extract(path);
  if (metrics != nullptr) {
    metrics->parse_seconds += timer.ElapsedSeconds();
    ++metrics->parse.records_parsed;
    metrics->parse.bytes_parsed += record.size();
    metrics->ondemand_records += first ? 1 : 0;
  }
  if (!value.ok()) return storage::Value::Null();
  return storage::Value::String(std::move(*value));
}

}  // namespace maxson::engine
