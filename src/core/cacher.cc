#include "core/cacher.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

#include "common/time_util.h"
#include "engine/path_extractor.h"
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

  // Each non-null record loads once — the DOM backend's one shared parse,
  // charged to every path that reads it — and then renders each path,
  // timed on its own: P_j is the cost of one get_json_object call.
  engine::PathExtractor extractor(paths, backend);
  std::vector<uint64_t> bytes(paths.size(), 0);
  std::vector<double> seconds(paths.size(), 0.0);
  const auto elapsed = [](MonotonicTime from, MonotonicTime to) {
    return std::chrono::duration<double>(to - from).count();
  };
  double load_seconds = 0.0;
  uint64_t records = 0;
  const size_t limit = std::min(sample_rows, batch.num_rows());
  for (size_t r = 0; r < limit; ++r) {
    if (batch.column(0).IsNull(r)) continue;
    ++records;
    MonotonicTime lap = MonotonicNow();
    extractor.Load(batch.column(0).GetString(r));
    MonotonicTime now = MonotonicNow();
    load_seconds += elapsed(lap, now);
    for (size_t i = 0; i < paths.size(); ++i) {
      const Result<std::string> value = extractor.Extract(i);
      if (value.ok()) bytes[i] += value->size();
      lap = now;
      now = MonotonicNow();
      seconds[i] += elapsed(lap, now);
    }
  }

  TableSample sample;
  sample.records_sampled = records;
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!extractor.status(i).ok()) {
      sample.paths.emplace_back(extractor.status(i));
      continue;
    }
    SampledPathStats stats;
    stats.table_rows = table_rows;
    if (records > 0) {
      const double measured = static_cast<double>(records);
      stats.avg_value_bytes =
          std::max(1.0, static_cast<double>(bytes[i]) / measured);
      stats.avg_parse_seconds =
          (seconds[i] + (extractor.reads_dom(i) ? load_seconds : 0.0)) /
          measured;
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

  // Fields are ordered by name, not by selection order, so one set of
  // paths gives one cache schema and byte-identical files however the
  // selection listed them. Each distinct source column gets one extractor
  // over its paths; work[i].source and .path locate field i's (extractor,
  // path). Immutable once built: split tasks read it concurrently, so
  // nothing split-specific (like resolved column indexes) may live here.
  struct PathWork {
    workload::JsonPathLocation location;
    std::string field;
    TypeKind type = TypeKind::kString;
    size_t source = 0;
    size_t path = 0;
  };
  std::vector<PathWork> work;
  for (const workload::JsonPathLocation& loc : paths) {
    work.push_back({loc, CacheFieldName(loc.column, loc.path)});
  }
  std::stable_sort(work.begin(), work.end(),
                   [](const PathWork& a, const PathWork& b) {
                     return a.field < b.field;
                   });
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> column_paths;
  for (PathWork& w : work) {
    w.source = static_cast<size_t>(
        std::find(columns.begin(), columns.end(), w.location.column) -
        columns.begin());
    if (w.source == columns.size()) {
      columns.push_back(w.location.column);
      column_paths.emplace_back();
    }
    w.path = column_paths[w.source].size();
    column_paths[w.source].push_back(w.location.path);
  }
  std::vector<engine::PathExtractor> extractors;
  for (const std::vector<std::string>& texts : column_paths) {
    extractors.emplace_back(texts, backend_);
    for (size_t k = 0; k < texts.size(); ++k) {
      MAXSON_RETURN_NOT_OK(extractors.back().status(k));
    }
  }

  // Type inference pass: sample the first split and store numeric JSONPath
  // values in typed columns, so the cache table's row-group min/max indexes
  // order numerically and SARGs like `id > 10000` (Fig. 10) can skip row
  // groups correctly. The types come from the DOM nodes the build's own
  // values render from; values that are not uniformly numeric stay
  // strings, and so does every path that reads no DOM: XML text content
  // and Mison's raw value text, which a typed column would re-render. Each
  // source column's first stripe is read once and each of its first
  // kTypeInferenceRows records parsed once for every path still numeric;
  // the pass stops early once all of them turned out strings.
  {
    CorcReader sample_reader(splits[0].path);
    MAXSON_RETURN_NOT_OK(sample_reader.Open());
    uint64_t records_sampled = 0;
    for (size_t c = 0; c < columns.size(); ++c) {
      engine::PathExtractor dom = extractors[c];
      struct Inference {
        bool all_int = true;
        bool all_double = true;
        bool any_value = false;
      };
      std::vector<Inference> infer(dom.size());
      size_t numeric = 0;
      for (size_t k = 0; k < dom.size(); ++k) {
        infer[k].all_double = dom.reads_dom(k);
        if (dom.reads_dom(k)) ++numeric;
      }
      const int idx = sample_reader.schema().FindField(columns[c]);
      if (idx < 0 || numeric == 0) continue;
      MAXSON_ASSIGN_OR_RETURN(
          storage::RecordBatch batch,
          sample_reader.ReadStripe(0, {idx}, std::nullopt, nullptr));
      const size_t limit = std::min(batch.num_rows(), kTypeInferenceRows);
      for (size_t r = 0; r < limit && numeric > 0; ++r) {
        if (batch.column(0).IsNull(r)) continue;
        dom.Load(batch.column(0).GetString(r));
        ++records_sampled;
        for (size_t k = 0; k < dom.size(); ++k) {
          Inference& p = infer[k];
          if (!p.all_double) continue;
          const json::JsonValue* node = dom.Node(k);
          if (node == nullptr) continue;
          p.any_value = true;
          if (!node->is_int()) p.all_int = false;
          if (!node->is_number()) {
            p.all_double = false;
            --numeric;
          }
        }
      }
      for (PathWork& w : work) {
        if (w.source != c) continue;
        const Inference& p = infer[w.path];
        if (p.any_value && p.all_int) {
          w.type = TypeKind::kInt64;
        } else if (p.any_value && p.all_double) {
          w.type = TypeKind::kDouble;
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
  // extractors, and stats partial, so split pre-parsing fans out on the
  // shared pool with no shared mutable state. Partials merge in split
  // order below, keeping the stats totals deterministic.
  std::vector<CachingStats> split_stats(splits.size());
  Status build_status = exec::ParallelFor(
      pool_.get(), splits.size(), [&](size_t split_i) -> Status {
        const Split& split = splits[split_i];
        CachingStats* split_out =
            stats != nullptr ? &split_stats[split_i] : nullptr;
        CorcReader reader(split.path);
        MAXSON_RETURN_NOT_OK(reader.Open());
        // Resolve source column indexes within this file (per split: part
        // files may order their fields differently); batch slot c holds
        // columns[c].
        std::vector<int> source_columns;
        source_columns.reserve(columns.size());
        for (const std::string& column : columns) {
          const int idx = reader.schema().FindField(column);
          if (idx < 0) {
            return Status::NotFound("column " + column + " missing in " +
                                    split.path);
          }
          source_columns.push_back(idx);
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

        // Each source column's record loads once per row and every path
        // derived from it reads that load (the whole point of pre-parsing
        // is to pay the deserialization once).
        std::vector<engine::PathExtractor> split_extractors = extractors;
        std::vector<Value> row;
        row.reserve(work.size());
        for (size_t s = 0; s < reader.num_stripes(); ++s) {
          MAXSON_ASSIGN_OR_RETURN(
              storage::RecordBatch batch,
              reader.ReadStripe(s, source_columns, std::nullopt, nullptr));
          Stopwatch parse_timer;
          for (size_t r = 0; r < batch.num_rows(); ++r) {
            for (size_t c = 0; c < columns.size(); ++c) {
              if (!batch.column(c).IsNull(r)) {
                split_extractors[c].Load(batch.column(c).GetString(r));
              }
            }
            row.clear();
            for (const PathWork& w : work) {
              // A NULL record or an absent path is cached as NULL,
              // matching get_json_object's NULL-on-missing semantics.
              Result<std::string> value = Status::NotFound("");
              if (!batch.column(w.source).IsNull(r)) {
                value = split_extractors[w.source].Extract(w.path);
              }
              if (value.ok()) {
                if (split_out != nullptr) {
                  split_out->bytes_written += value->size();
                }
                row.push_back(Value::String(std::move(*value)));
              } else {
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
