#include "core/cacher.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

#include "common/time_util.h"
#include "json/json_path.h"
#include "json/mison_parser.h"
#include "xml/xml_path.h"
#include "storage/corc_reader.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"

namespace maxson::core {

using storage::CorcReader;
using storage::CorcWriter;
using storage::CorcWriterOptions;
using storage::FileSystem;
using storage::Split;
using storage::TypeKind;
using storage::Value;

Result<TableSample> SampleTablePaths(const catalog::TableInfo& table,
                                     const std::string& column,
                                     const std::vector<std::string>& paths,
                                     size_t sample_rows,
                                     engine::JsonBackend backend) {
  MAXSON_ASSIGN_OR_RETURN(std::vector<Split> splits,
                          FileSystem::ListSplits(table.location));
  if (splits.empty()) {
    return Status::NotFound("no splits under " + table.location);
  }
  // Total row count across splits (for cache-footprint estimation).
  uint64_t table_rows = 0;
  for (const Split& split : splits) {
    CorcReader reader(split.path);
    MAXSON_RETURN_NOT_OK(reader.Open());
    table_rows += reader.num_rows();
  }

  CorcReader reader(splits[0].path);
  MAXSON_RETURN_NOT_OK(reader.Open());
  const int column_index = reader.schema().FindField(column);
  if (column_index < 0) {
    return Status::NotFound("column " + column + " missing in sample split");
  }
  MAXSON_ASSIGN_OR_RETURN(
      storage::RecordBatch batch,
      reader.ReadStripe(0, {column_index}, std::nullopt, nullptr));
  std::vector<const std::string*> records;
  const size_t limit = std::min(sample_rows, batch.num_rows());
  for (size_t r = 0; r < limit; ++r) {
    if (!batch.column(0).IsNull(r)) {
      records.push_back(&batch.column(0).GetString(r));
    }
  }

  struct Probe {
    Status status;
    bool is_xml = false;
    bool shared = false;  // evaluates against the shared DOM
    json::JsonPath parsed;
    xml::XmlPath xpath;
    uint64_t bytes = 0;
    double seconds = 0.0;
  };
  std::vector<Probe> probes(paths.size());
  bool any_shared = false;
  for (size_t i = 0; i < paths.size(); ++i) {
    Probe& p = probes[i];
    p.is_xml = xml::IsXmlPathText(paths[i]);
    if (p.is_xml) {
      auto parsed = xml::XmlPath::Parse(paths[i]);
      p.status = parsed.status();
      if (parsed.ok()) p.xpath = std::move(*parsed);
    } else {
      auto parsed = json::JsonPath::Parse(paths[i]);
      p.status = parsed.status();
      if (parsed.ok()) p.parsed = std::move(*parsed);
    }
    p.shared = p.status.ok() && !p.is_xml &&
               backend != engine::JsonBackend::kMison;
    any_shared |= p.shared;
  }

  // Mison's speculation and XPath evaluation work per path: each runs its
  // own pass over the shared records.
  for (Probe& p : probes) {
    if (!p.status.ok() || p.shared) continue;
    json::MisonParser mison;
    Stopwatch timer;
    for (const std::string* text : records) {
      Result<std::string> value = p.is_xml ? xml::GetXmlObject(*text, p.xpath)
                                           : mison.Extract(*text, p.parsed);
      if (value.ok()) p.bytes += value->size();
    }
    p.seconds = timer.ElapsedSeconds();
  }
  // DOM: one parse per record, charged to every JSONPath, then each path's
  // own evaluate and render.
  if (any_shared) {
    const auto seconds = [](MonotonicTime from, MonotonicTime to) {
      return std::chrono::duration<double>(to - from).count();
    };
    double parse_seconds = 0.0;
    for (const std::string* text : records) {
      MonotonicTime lap = MonotonicNow();
      const Result<json::JsonValue> root = json::ParseJson(*text);
      MonotonicTime now = MonotonicNow();
      parse_seconds += seconds(lap, now);
      for (Probe& p : probes) {
        if (!p.shared) continue;
        const json::JsonValue* node =
            root.ok() ? p.parsed.Evaluate(*root) : nullptr;
        if (node != nullptr) {
          p.bytes += json::RenderGetJsonObjectResult(*node).size();
        }
        lap = now;
        now = MonotonicNow();
        p.seconds += seconds(lap, now);
      }
    }
    for (Probe& p : probes) {
      if (p.shared) p.seconds += parse_seconds;
    }
  }

  TableSample sample;
  sample.records_sampled = records.size();
  for (const Probe& p : probes) {
    if (!p.status.ok()) {
      sample.paths.emplace_back(p.status);
      continue;
    }
    SampledPathStats stats;
    stats.table_rows = table_rows;
    if (!records.empty()) {
      const double measured = static_cast<double>(records.size());
      stats.avg_value_bytes =
          std::max(1.0, static_cast<double>(p.bytes) / measured);
      stats.avg_parse_seconds = p.seconds / measured;
    }
    stats.estimated_cache_bytes = static_cast<uint64_t>(
        stats.avg_value_bytes * static_cast<double>(table_rows));
    sample.paths.emplace_back(stats);
  }
  return sample;
}

Status JsonPathCacher::CacheTablePaths(
    const std::string& database, const std::string& table,
    const std::vector<workload::JsonPathLocation>& paths, int64_t cache_time,
    CacheRegistry* registry, CachingStats* stats) {
  MAXSON_ASSIGN_OR_RETURN(const catalog::TableInfo* info,
                          catalog_->GetTable(database, table));
  MAXSON_ASSIGN_OR_RETURN(std::vector<Split> splits,
                          FileSystem::ListSplits(info->location));
  if (splits.empty()) {
    return Status::NotFound("no splits under " + info->location);
  }

  // All JSONPaths of one raw table go into one cache table; fields remember
  // the column and path they were parsed from. Entries still pointing at
  // the directory drop out of the registry first — queries planned from now
  // on parse raw — and the whole rebuild happens in a staging directory
  // that replaces the live one only when every split succeeded.
  const std::string cache_dir = CacheTableDir(cache_root_, database, table);
  const std::string staging_dir = cache_dir + ".staging";
  registry->InvalidateByDir(cache_dir);
  MAXSON_RETURN_NOT_OK(FileSystem::RemoveAll(staging_dir));
  MAXSON_RETURN_NOT_OK(FileSystem::MakeDirs(staging_dir));

  // Immutable once built: split tasks read the work list concurrently, so
  // nothing split-specific (like resolved column indexes) may live here.
  struct PathWork {
    workload::JsonPathLocation location;
    bool is_xml = false;   // XPath ('/..') vs JSONPath ('$..')
    json::JsonPath parsed;
    xml::XmlPath xpath;
    std::string field;
    TypeKind type = TypeKind::kString;
  };
  std::vector<PathWork> work;
  for (const workload::JsonPathLocation& loc : paths) {
    PathWork w;
    w.location = loc;
    w.is_xml = xml::IsXmlPathText(loc.path);
    if (w.is_xml) {
      MAXSON_ASSIGN_OR_RETURN(w.xpath, xml::XmlPath::Parse(loc.path));
    } else {
      MAXSON_ASSIGN_OR_RETURN(w.parsed, json::JsonPath::Parse(loc.path));
    }
    w.field = CacheFieldName(loc.column, loc.path);
    work.push_back(std::move(w));
  }

  // Type inference pass: sample the first split and store numeric JSONPath
  // values in typed columns, so the cache table's row-group min/max indexes
  // order numerically and SARGs like `id > 10000` (Fig. 10) can skip row
  // groups correctly. Values that are not uniformly numeric stay strings.
  // Each source column's first stripe is read once and each of its first
  // kTypeInferenceRows records parsed once for every path still numeric;
  // the pass stops early once all of them turned out strings.
  {
    struct Inference {
      PathWork* work;
      bool all_int = true;
      bool all_double = true;
      bool any_value = false;
    };
    std::map<std::string, std::vector<Inference>> by_column;
    for (PathWork& w : work) {
      // XML values stay strings (text content).
      if (!w.is_xml) by_column[w.location.column].push_back({&w});
    }
    CorcReader sample_reader(splits[0].path);
    MAXSON_RETURN_NOT_OK(sample_reader.Open());
    uint64_t records_sampled = 0;
    for (auto& [column, pending] : by_column) {
      const int idx = sample_reader.schema().FindField(column);
      if (idx < 0) continue;
      MAXSON_ASSIGN_OR_RETURN(
          storage::RecordBatch batch,
          sample_reader.ReadStripe(0, {idx}, std::nullopt, nullptr));
      size_t numeric = pending.size();
      const size_t limit = std::min(batch.num_rows(), kTypeInferenceRows);
      for (size_t r = 0; r < limit && numeric > 0; ++r) {
        if (batch.column(0).IsNull(r)) continue;
        auto dom = json::ParseJson(batch.column(0).GetString(r));
        ++records_sampled;
        if (!dom.ok()) continue;
        for (Inference& p : pending) {
          if (!p.all_double) continue;
          const json::JsonValue* node = p.work->parsed.Evaluate(*dom);
          if (node == nullptr) continue;
          p.any_value = true;
          if (!node->is_int()) p.all_int = false;
          if (!node->is_number()) {
            p.all_double = false;
            --numeric;
          }
        }
      }
      for (const Inference& p : pending) {
        if (p.any_value && p.all_int) {
          p.work->type = TypeKind::kInt64;
        } else if (p.any_value && p.all_double) {
          p.work->type = TypeKind::kDouble;
        }
      }
    }
    if (stats != nullptr) stats->records_sampled += records_sampled;
  }
  storage::Schema cache_schema;
  for (const PathWork& w : work) {
    cache_schema.AddField(w.field, w.type);
  }

  // One task per split: each owns its reader, writer, column resolution,
  // speculative parser, and stats partial, so split pre-parsing fans out
  // on the shared pool with no shared mutable state. Partials merge in
  // split order below, keeping the stats totals deterministic.
  std::vector<CachingStats> split_stats(splits.size());
  Status build_status = exec::ParallelFor(
      pool_.get(), splits.size(), [&](size_t split_i) -> Status {
        const Split& split = splits[split_i];
        CachingStats* split_out =
            stats != nullptr ? &split_stats[split_i] : nullptr;
        CorcReader reader(split.path);
        MAXSON_RETURN_NOT_OK(reader.Open());
        // Resolve source column indexes within this file (per split: part
        // files may order their fields differently).
        std::vector<int> source_columns;
        source_columns.reserve(work.size());
        for (const PathWork& w : work) {
          const int idx = reader.schema().FindField(w.location.column);
          if (idx < 0) {
            return Status::NotFound("column " + w.location.column +
                                    " missing in " + split.path);
          }
          source_columns.push_back(idx);
        }
        // Deduplicate source columns for the read; work_slot[wi] is the
        // batch slot holding path wi's source column.
        std::vector<int> unique_columns;
        std::vector<size_t> work_slot;
        work_slot.reserve(work.size());
        for (int c : source_columns) {
          auto it = std::find(unique_columns.begin(), unique_columns.end(), c);
          work_slot.push_back(
              static_cast<size_t>(it - unique_columns.begin()));
          if (it == unique_columns.end()) unique_columns.push_back(c);
        }

        // The cache file mirrors the raw file: same index in the sorted
        // listing, same row count, same row-group size (alignment
        // guarantee).
        CorcWriterOptions options;
        options.rows_per_group = reader.footer().rows_per_group;
        options.format_version = format_version_;
        CorcWriter writer(
            staging_dir + "/" + FileSystem::PartFileName(split.index),
            cache_schema, options);
        MAXSON_RETURN_NOT_OK(writer.Open());

        json::MisonParser mison;
        // Parse each source JSON column once per row and evaluate every
        // requested path against it (the whole point of pre-parsing is to
        // pay the deserialization once). Per-slot DOMs and the row buffer
        // are reused across rows.
        std::vector<std::optional<Result<json::JsonValue>>> doms(
            unique_columns.size());
        std::vector<Value> row;
        row.reserve(work.size());
        for (size_t s = 0; s < reader.num_stripes(); ++s) {
          MAXSON_ASSIGN_OR_RETURN(
              storage::RecordBatch batch,
              reader.ReadStripe(s, unique_columns, std::nullopt, nullptr));
          Stopwatch parse_timer;
          for (size_t r = 0; r < batch.num_rows(); ++r) {
            for (auto& dom : doms) dom.reset();
            row.clear();
            for (size_t wi = 0; wi < work.size(); ++wi) {
              const PathWork& w = work[wi];
              const size_t slot = work_slot[wi];
              if (batch.column(slot).IsNull(r)) {
                row.push_back(Value::Null());
                continue;
              }
              const std::string& text = batch.column(slot).GetString(r);
              Result<std::string> value = Status::NotFound("");
              if (w.is_xml) {
                value = xml::GetXmlObject(text, w.xpath);
              } else if (backend_ == engine::JsonBackend::kMison) {
                value = mison.Extract(text, w.parsed);
              } else {
                std::optional<Result<json::JsonValue>>& dom = doms[slot];
                if (!dom.has_value()) dom.emplace(json::ParseJson(text));
                if (dom->ok()) {
                  const json::JsonValue* node = w.parsed.Evaluate(**dom);
                  if (node != nullptr) {
                    value = json::RenderGetJsonObjectResult(*node);
                  }
                }
              }
              if (value.ok()) {
                if (split_out != nullptr) {
                  split_out->bytes_written += value->size();
                }
                row.push_back(Value::String(std::move(*value)));
              } else {
                // Absent path: cached as NULL, matching get_json_object's
                // NULL-on-missing semantics.
                row.push_back(Value::Null());
              }
            }
            MAXSON_RETURN_NOT_OK(writer.AppendRow(row));
            if (split_out != nullptr) ++split_out->rows_parsed;
          }
          if (split_out != nullptr) {
            split_out->parse_seconds += parse_timer.ElapsedSeconds();
          }
        }
        MAXSON_RETURN_NOT_OK(writer.Close());
        if (split_out != nullptr) {
          const storage::CorcWriteStats& ws = writer.write_stats();
          split_out->corc_raw_bytes += ws.raw_bytes;
          split_out->corc_encoded_bytes += ws.encoded_bytes;
          for (int e = 0; e < storage::kNumChunkEncodings; ++e) {
            split_out->corc_chunks[e] += ws.chunks[e];
          }
        }
        return Status::Ok();
      });
  if (!build_status.ok()) {
    // Failed builds leave nothing behind; the live cache dir (if any) was
    // already unregistered above, so it simply ages out next cycle.
    Status cleanup = FileSystem::RemoveAll(staging_dir);
    if (!cleanup.ok()) {
      MAXSON_LOG(Warning) << "staging cleanup failed: " << cleanup;
    }
    return build_status;
  }
  if (stats != nullptr) {
    for (const CachingStats& s : split_stats) stats->Add(s);
  }

  // Durable publish: sync the finished staging directory, swap it into
  // place, and sync the parent so the swap survives a crash. Only after the
  // files are live do registry entries appear — a process killed anywhere
  // above leaves the registry without entries for this table and at worst a
  // staging directory that the next cycle deletes.
  MAXSON_RETURN_NOT_OK(FileSystem::SyncDir(staging_dir));
  MAXSON_RETURN_NOT_OK(FileSystem::RemoveAll(cache_dir));
  MAXSON_RETURN_NOT_OK(FileSystem::RenameFile(staging_dir, cache_dir));
  MAXSON_RETURN_NOT_OK(FileSystem::SyncDir(cache_root_));

  for (const PathWork& w : work) {
    CacheEntry entry;
    entry.location = w.location;
    entry.cache_table_dir = cache_dir;
    entry.cache_field = w.field;
    entry.cache_time = cache_time;
    entry.valid = true;
    registry->Put(std::move(entry));
    if (stats != nullptr) ++stats->paths_cached;
  }
  return Status::Ok();
}

Result<CachingStats> JsonPathCacher::RepopulateCache(
    const std::vector<ScoredMpjp>& selected, int64_t cache_time,
    CacheRegistry* registry) {
  Stopwatch total_timer;
  CachingStats stats;
  // Nightly reset: drop previous entries and delete their files (this also
  // removes tables marked invalid since the last cycle).
  for (const std::string& dir : registry->Clear()) {
    MAXSON_RETURN_NOT_OK(FileSystem::RemoveAll(dir));
  }

  // Group selections by raw table.
  std::map<std::string, std::vector<workload::JsonPathLocation>> by_table;
  for (const ScoredMpjp& s : selected) {
    by_table[s.candidate.location.database + "." + s.candidate.location.table]
        .push_back(s.candidate.location);
  }
  for (const auto& [qualified, paths] : by_table) {
    const size_t dot = qualified.find('.');
    MAXSON_RETURN_NOT_OK(CacheTablePaths(qualified.substr(0, dot),
                                         qualified.substr(dot + 1), paths,
                                         cache_time, registry, &stats));
  }
  stats.total_seconds = total_timer.ElapsedSeconds();
  return stats;
}

}  // namespace maxson::core
