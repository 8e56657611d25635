// Extended experiment: sustained daily operation on the real engine.
//
// The paper evaluates one snapshot of the nightly cycle; this bench runs
// several consecutive simulated days end-to-end: every day new data is
// appended (invalidating yesterday's cache), the day's queries execute
// (first against a stale cache, demonstrating the validity check of
// Algorithm 1), then the midnight cycle re-trains nothing but re-predicts,
// re-scores and re-populates the cache for the next day. Reported per day:
// query time with Maxson vs the no-cache baseline, cache overhead, and the
// share of queries that ran fully from cache.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "core/maxson.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"

using maxson::core::MaxsonConfig;
using maxson::core::MaxsonSession;
using maxson::storage::FileSystem;
using maxson::workload::JsonPathLocation;
using maxson::workload::JsonTableSpec;
using maxson::workload::QueryRecord;

namespace {

JsonPathLocation Loc(const char* path) {
  JsonPathLocation l;
  l.database = "db";
  l.table = "events";
  l.column = "payload";
  l.path = path;
  return l;
}

/// Appends one more part file of fresh data and bumps the table's
/// modification clock (the daily load).
maxson::Status AppendDailyData(maxson::catalog::Catalog* catalog,
                               const std::string& dir, size_t file_index,
                               uint64_t rows, int64_t timestamp) {
  JsonTableSpec spec;
  spec.table = "events";
  spec.num_properties = 14;
  spec.avg_json_bytes = 600;
  spec.seed = 7;
  maxson::storage::Schema schema;
  schema.AddField("id", maxson::storage::TypeKind::kInt64);
  schema.AddField("date", maxson::storage::TypeKind::kInt64);
  schema.AddField("payload", maxson::storage::TypeKind::kString);
  maxson::storage::CorcWriterOptions options;
  options.rows_per_group = 1000;
  maxson::storage::CorcWriter writer(
      dir + "/" + FileSystem::PartFileName(file_index), schema, options);
  MAXSON_RETURN_NOT_OK(writer.Open());
  for (uint64_t i = 0; i < rows; ++i) {
    const uint64_t row = file_index * rows + i;
    MAXSON_RETURN_NOT_OK(writer.AppendRow(
        {maxson::storage::Value::Int64(static_cast<int64_t>(row)),
         maxson::storage::Value::Int64(20190101 + static_cast<int64_t>(
                                                      file_index)),
         maxson::storage::Value::String(
             maxson::workload::GenerateJsonRecord(spec, row))}));
  }
  MAXSON_RETURN_NOT_OK(writer.Close());
  return catalog->TouchTable("db", "events", timestamp);
}

}  // namespace

int main() {
  maxson::bench::PrintHeader(
      "Extended — sustained daily operation (append, invalidate, re-cache)",
      "cache invalidates on daily loads, midnight cycle restores the "
      "speedup; overhead stays a small share of daily work");

  maxson::bench::BenchWorkspace workspace("daily");
  maxson::catalog::Catalog catalog;
  const std::string dir = workspace.dir() + "/warehouse/db/events";
  if (!FileSystem::MakeDirs(dir).ok()) return 1;
  if (!catalog.CreateDatabase("db").ok()) return 1;
  {
    maxson::catalog::TableInfo info;
    info.database = "db";
    info.name = "events";
    info.schema.AddField("id", maxson::storage::TypeKind::kInt64);
    info.schema.AddField("date", maxson::storage::TypeKind::kInt64);
    info.schema.AddField("payload", maxson::storage::TypeKind::kString);
    info.location = dir;
    if (!catalog.CreateTable(info).ok()) return 1;
  }
  const uint64_t kRowsPerDay = 8000;
  if (!AppendDailyData(&catalog, dir, 0, kRowsPerDay, 0).ok()) return 1;

  MaxsonConfig config;
  config.cache_root = workspace.dir() + "/cache";
  config.engine.default_database = "db";
  config.predictor.epochs = 6;
  // The no-cache baseline models Spark+Jackson, as in the paper's figures.
  config.engine.enable_ondemand = false;
  MaxsonSession session(&catalog, config);

  const std::vector<std::string> daily_queries = {
      "SELECT get_json_object(payload, '$.f1') AS category, COUNT(*) AS n "
      "FROM db.events GROUP BY get_json_object(payload, '$.f1')",
      "SELECT id, get_json_object(payload, '$.f2') AS metric FROM db.events "
      "WHERE to_int(get_json_object(payload, '$.f2')) > 900",
      "SELECT get_json_object(payload, '$.f0') AS key0 FROM db.events "
      "ORDER BY to_int(get_json_object(payload, '$.f0')) DESC LIMIT 20",
  };
  const std::vector<JsonPathLocation> query_paths = {Loc("$.f0"), Loc("$.f1"),
                                                     Loc("$.f2")};

  // Two weeks of history to train on.
  for (int day = 0; day < 14; ++day) {
    for (int rep = 0; rep < 3; ++rep) {
      QueryRecord q;
      q.date = day;
      q.paths = query_paths;
      session.RecordQuery(q);
    }
  }
  if (!session.TrainPredictor(8, 13).ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }
  // First midnight: populate the cache for day 14.
  if (!session.RunMidnightCycle(14).ok()) return 1;

  std::printf("%-5s %14s %14s %9s %12s %11s\n", "day", "no-cache (ms)",
              "maxson (ms)", "speedup", "cache (ms)", "stale runs");
  for (int day = 14; day < 19; ++day) {
    // Morning: the daily load arrives -> cache for this table goes stale.
    // The load happens after last midnight's cache population (cache_time
    // == day), so its modification stamp must exceed it.
    const size_t file_index = static_cast<size_t>(day - 13);
    if (!AppendDailyData(&catalog, dir, file_index, kRowsPerDay, day + 1)
             .ok()) {
      return 1;
    }
    // A query hitting the stale cache must fall back to raw parsing.
    auto stale = session.Execute(daily_queries[0]);
    const bool fell_back =
        stale.ok() && stale->metrics.parse.records_parsed > 0;

    // Midnight: re-populate against the grown table (also records today's
    // queries into the collector for future predictions).
    for (int rep = 0; rep < 3; ++rep) {
      QueryRecord q;
      q.date = day;
      q.paths = query_paths;
      session.RecordQuery(q);
    }
    auto midnight = session.RunMidnightCycle(day + 1);
    if (!midnight.ok()) {
      std::fprintf(stderr, "midnight failed: %s\n",
                   midnight.status().ToString().c_str());
      return 1;
    }

    // Next day's workload, cached vs baseline.
    double cached_ms = 0;
    double plain_ms = 0;
    for (const std::string& sql : daily_queries) {
      auto warm = session.Execute(sql);
      auto cold = session.ExecuteWithoutCache(sql);
      if (!warm.ok() || !cold.ok()) {
        std::fprintf(stderr, "query failed\n");
        return 1;
      }
      cached_ms += warm->metrics.TotalSeconds() * 1e3;
      plain_ms += cold->metrics.TotalSeconds() * 1e3;
    }
    std::printf("%-5d %14.1f %14.1f %8.1fx %12.1f %11s\n", day, plain_ms,
                cached_ms, plain_ms / std::max(1e-3, cached_ms),
                midnight->caching.total_seconds * 1e3,
                fell_back ? "fell back" : "cache hit?!");
  }
  std::printf("\nshape: every day the load invalidates, queries still answer "
              "correctly from raw data,\nand the midnight cycle restores the "
              "cached speedup for the following day.\n");
  return 0;
}
