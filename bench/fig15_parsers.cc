// Fig. 15: per-query running time of the ten Table II queries under
// Spark+Jackson, Spark+Mison, Maxson, and Maxson+Mison (cache limit at the
// "300GB"-equivalent, i.e. most MPJPs cached).
//
// Paper shape: Mison cuts Spark's parse time notably (most where the JSON
// pattern is stable); for queries whose paths are cached, Maxson beats
// even Mison because it pays no parsing at all; queries whose paths were
// not cached (Q1/Q5/Q8 in the paper) benefit from Mison as a complement.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "common/time_util.h"
#include "core/maxson.h"
#include "json/dom_parser.h"
#include "json/json_path.h"
#include "json/ondemand_parser.h"
#include "workload/data_generator.h"
#include "workload/query_templates.h"

using maxson::core::MaxsonConfig;
using maxson::core::MaxsonSession;
using maxson::core::ScoredMpjp;
using maxson::engine::JsonBackend;
using maxson::workload::BenchmarkQuery;

int main() {
  maxson::bench::PrintHeader(
      "Fig. 15 — Spark+Jackson vs Spark+Mison vs Maxson vs Maxson+Mison",
      "Mison speeds up parsing (best on stable schemas); cached queries "
      "run fastest under Maxson; Mison complements uncached paths");

  maxson::bench::BenchWorkspace workspace("fig15");
  maxson::catalog::Catalog catalog;
  maxson::workload::BenchmarkSuiteOptions suite;
  suite.bytes_per_table = 4ull << 20;
  suite.max_rows = 20000;
  auto queries = maxson::workload::MakeTableIIQueries(suite);
  std::printf("generating the 10 Table II tables...\n");
  if (auto st = maxson::workload::GenerateBenchmarkTables(
          queries, workspace.dir() + "/warehouse", suite, &catalog);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // Two sessions sharing one cache: DOM-backed and Mison-backed engines.
  MaxsonConfig dom_config;
  dom_config.cache_root = workspace.dir() + "/cache";
  dom_config.engine.default_database = "bench";
  dom_config.predictor.epochs = 6;
  // "Jackson" is the paper's full-DOM parser, not the on-demand tier.
  dom_config.engine.enable_ondemand = false;
  MaxsonSession dom(&catalog, dom_config);

  MaxsonConfig mison_config = dom_config;
  mison_config.engine.json_backend = JsonBackend::kMison;
  MaxsonSession mison(&catalog, mison_config);

  // History + training on the DOM session; 75%-of-footprint budget models
  // the paper's 300 GB setting (not everything fits; Q1/Q5/Q8-style
  // leftovers stay uncached).
  for (int day = 0; day < 14; ++day) {
    for (const BenchmarkQuery& q : queries) {
      for (int rep = 0; rep < 2; ++rep) {
        maxson::workload::QueryRecord record;
        record.date = day;
        record.paths = q.paths;
        dom.RecordQuery(record);
      }
    }
  }
  if (auto st = dom.TrainPredictor(8, 13); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const auto predicted = dom.PredictMpjps(14);
  auto scored = dom.ScoreCandidates(predicted, 14);
  if (!scored.ok()) {
    std::fprintf(stderr, "%s\n", scored.status().ToString().c_str());
    return 1;
  }
  uint64_t total_bytes = 0;
  for (const auto& s : *scored) total_bytes += s.candidate.estimated_cache_bytes;
  auto selected = maxson::core::SelectWithinBudget(
      *scored, static_cast<uint64_t>(total_bytes * 0.75));
  auto stats = dom.CacheSelected(selected, 14);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  // Mirror the registry into the Mison session (shared cache tables).
  mison.ImportCacheEntries(dom.registry().Snapshot());
  std::set<std::string> cached_keys;
  for (const auto& s : selected) cached_keys.insert(s.candidate.location.Key());
  std::printf("cached %zu/%zu MPJPs at the 75%%-footprint budget\n\n",
              selected.size(), scored->size());

  std::printf("%-5s %7s | %14s %12s %8s %12s | %s\n", "query", "cached",
              "Spark+Jackson", "Spark+Mison", "Maxson", "Maxson+Mison",
              "speedup(Maxson vs Jackson)");
  double sum_speedup = 0;
  double min_speedup = 1e30;
  double max_speedup = 0;
  struct QueryRow {
    std::string name;
    size_t cached = 0;
    size_t paths = 0;
    double jackson_ms = 0, mison_ms = 0, maxson_ms = 0, maxson_mison_ms = 0;
  };
  std::vector<QueryRow> query_rows;
  for (const BenchmarkQuery& q : queries) {
    size_t cached = 0;
    for (const auto& p : q.paths) {
      if (cached_keys.count(p.Key()) != 0) ++cached;
    }
    auto jackson = dom.ExecuteWithoutCache(q.sql);
    auto spark_mison = mison.ExecuteWithoutCache(q.sql);
    auto maxson_run = dom.Execute(q.sql);
    auto maxson_mison = mison.Execute(q.sql);
    if (!jackson.ok() || !spark_mison.ok() || !maxson_run.ok() ||
        !maxson_mison.ok()) {
      std::fprintf(stderr, "%s failed\n", q.name.c_str());
      return 1;
    }
    const double tj = jackson->metrics.TotalSeconds() * 1e3;
    const double tm = spark_mison->metrics.TotalSeconds() * 1e3;
    const double tx = maxson_run->metrics.TotalSeconds() * 1e3;
    const double txm = maxson_mison->metrics.TotalSeconds() * 1e3;
    const double speedup = tj / std::max(1e-9, tx);
    sum_speedup += speedup;
    min_speedup = std::min(min_speedup, speedup);
    max_speedup = std::max(max_speedup, speedup);
    std::printf("%-5s %4zu/%-2zu | %12.1fms %10.1fms %6.1fms %10.1fms | %6.1fx\n",
                q.name.c_str(), cached, q.paths.size(), tj, tm, tx, txm,
                speedup);
    query_rows.push_back({q.name, cached, q.paths.size(), tj, tm, tx, txm});
  }
  std::printf("\nMaxson speedup over Spark+Jackson: min %.1fx, mean %.1fx, "
              "max %.1fx (paper: 1.5x - 6.5x; Q10 up to 45x)\n",
              min_speedup, sum_speedup / 10.0, max_speedup);

  // --- On-demand tier: path-count sweep -----------------------------------
  // Same records, growing path sets. Three uncached extraction strategies:
  //   dom_per_path  k independent GetJsonObject calls (one full DOM parse
  //                 each — the engine with the on-demand tier off),
  //   dom_once      one DOM parse, k path evaluations over the tree (the
  //                 cache build's and the corruption fallback's
  //                 PathExtractor),
  //   ondemand_memo k Extract calls on one parser — the engine's
  //                 get_json_object path, where the parser's one-record
  //                 memo lets the k calls share one validated structural
  //                 tape, each call a forward-only cursor that skips
  //                 unrequested siblings without materializing them.
  // The crossover is the smallest k where dom_once catches up with the
  // on-demand tier; 0 means it never did. The skipped fraction is the
  // share of each call's record bytes its cursor skipped.
  std::printf("\nOn-demand sweep: extracting k paths per record "
              "(uncached, 40-property ~2KB records)\n");
  maxson::workload::JsonTableSpec sweep_spec;
  sweep_spec.table = "sweep";
  sweep_spec.num_properties = 40;
  sweep_spec.nesting_level = 3;
  sweep_spec.avg_json_bytes = 2000;
  sweep_spec.seed = 15;
  const size_t kDocs = 2000;
  std::vector<std::string> docs;
  docs.reserve(kDocs);
  size_t doc_bytes = 0;
  for (size_t i = 0; i < kDocs; ++i) {
    docs.push_back(maxson::workload::GenerateJsonRecord(sweep_spec, i));
    doc_bytes += docs.back().size();
  }

  struct SweepPoint {
    int paths = 0;
    double dom_per_path_ms = 0;
    double dom_once_ms = 0;
    double ondemand_memo_ms = 0;
    double skipped_fraction = 0;
  };
  std::vector<SweepPoint> sweep;
  std::printf("%5s | %12s %10s %10s | %s\n", "paths", "dom-per-path",
              "dom-once", "k-extract", "bytes skipped");
  for (const int k : {1, 2, 3, 4, 6, 8}) {
    std::vector<maxson::json::JsonPath> paths;
    for (int p = 0; p < k; ++p) {
      auto parsed =
          maxson::json::JsonPath::Parse("$.f" + std::to_string(p + 2));
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      paths.push_back(std::move(*parsed));
    }
    SweepPoint point;
    point.paths = k;
    size_t checksum_a = 0, checksum_b = 0, checksum_c = 0;

    maxson::Stopwatch per_path_timer;
    for (const std::string& doc : docs) {
      for (const auto& path : paths) {
        auto v = maxson::json::GetJsonObject(doc, path);
        if (v.ok()) checksum_a += v->size();
      }
    }
    point.dom_per_path_ms = per_path_timer.ElapsedSeconds() * 1e3;

    maxson::Stopwatch once_timer;
    for (const std::string& doc : docs) {
      auto root = maxson::json::ParseJson(doc);
      if (!root.ok()) continue;
      for (const auto& path : paths) {
        const maxson::json::JsonValue* node = path.Evaluate(*root);
        if (node != nullptr) {
          checksum_b += maxson::json::RenderGetJsonObjectResult(*node).size();
        }
      }
    }
    point.dom_once_ms = once_timer.ElapsedSeconds() * 1e3;

    maxson::json::OndemandParser memo;
    maxson::Stopwatch memo_timer;
    for (const std::string& doc : docs) {
      for (const auto& path : paths) {
        auto v = memo.Extract(doc, path);
        if (v.ok()) checksum_c += v->size();
      }
    }
    point.ondemand_memo_ms = memo_timer.ElapsedSeconds() * 1e3;
    point.skipped_fraction =
        static_cast<double>(memo.skipped_bytes()) /
        (static_cast<double>(doc_bytes) * k);
    if (checksum_a != checksum_b || checksum_b != checksum_c) {
      std::fprintf(stderr, "extraction mismatch at k=%d (%zu/%zu/%zu)\n", k,
                   checksum_a, checksum_b, checksum_c);
      return 1;
    }
    std::printf("%5d | %10.1fms %8.1fms %8.1fms | %4.0f%%\n", k,
                point.dom_per_path_ms, point.dom_once_ms,
                point.ondemand_memo_ms, point.skipped_fraction * 100);
    sweep.push_back(point);
  }
  int crossover = 0;  // 0 = on-demand won at every measured path count
  for (const SweepPoint& p : sweep) {
    if (p.dom_once_ms < p.ondemand_memo_ms) {
      crossover = p.paths;
      break;
    }
  }
  if (crossover == 0) {
    std::printf("on-demand beat dom-once at every measured path count\n");
  } else {
    std::printf("crossover: dom-once catches up at %d paths\n", crossover);
  }

  std::ofstream json("BENCH_parsers.json", std::ios::trunc);
  json << "{\n  \"bench\": \"fig15_parsers\",\n  \"queries\": [\n";
  for (size_t i = 0; i < query_rows.size(); ++i) {
    const QueryRow& r = query_rows[i];
    json << "    {\"name\": \"" << r.name << "\", \"cached_paths\": "
         << r.cached << ", \"total_paths\": " << r.paths
         << ", \"spark_jackson_ms\": " << r.jackson_ms
         << ", \"spark_mison_ms\": " << r.mison_ms
         << ", \"maxson_ms\": " << r.maxson_ms
         << ", \"maxson_mison_ms\": " << r.maxson_mison_ms << "}"
         << (i + 1 < query_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"ondemand_sweep\": {\n    \"docs\": " << kDocs
       << ",\n    \"avg_doc_bytes\": "
       << static_cast<double>(doc_bytes) / static_cast<double>(kDocs)
       << ",\n    \"points\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    json << "      {\"paths\": " << p.paths << ", \"dom_per_path_ms\": "
         << p.dom_per_path_ms << ", \"dom_once_ms\": " << p.dom_once_ms
         << ", \"ondemand_memo_ms\": " << p.ondemand_memo_ms
         << ", \"skipped_fraction\": " << p.skipped_fraction << "}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "    ],\n    \"crossover_paths\": " << crossover
       << "\n  }\n}\n";
  std::printf("wrote BENCH_parsers.json\n");
  return 0;
}
