// Instrumentation overhead of the observability layer on a Fig.-12-style
// cached query (Q2): per-operator stats, metric publication, and — when
// enabled — trace spans all run inside Execute(), so their cost must stay
// in the noise (<5% of query time).
//
// Writes BENCH_observability.json with the measured medians and the
// overhead of tracing on vs off: the median of paired relative differences
// over alternating off/on runs.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/catalog.h"
#include "common/time_util.h"
#include "core/maxson.h"
#include "workload/query_templates.h"

using maxson::core::MaxsonConfig;
using maxson::core::MaxsonSession;
using maxson::workload::BenchmarkQuery;

namespace {

/// Wall seconds of one execution of `sql` with tracing switched to
/// `tracing` beforehand (the switch itself is not timed).
double TimedRun(MaxsonSession* session, const std::string& sql, bool tracing) {
  maxson::core::SessionUpdate update;
  update.tracing = tracing;
  if (auto st = session->UpdateConfig(update); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::exit(1);
  }
  maxson::Stopwatch timer;
  auto result = session->Execute(sql);
  const double seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return seconds;
}

/// The value at quantile `q` (nearest rank) of `values`.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(rank + 0.5)];
}

}  // namespace

int main() {
  maxson::bench::PrintHeader(
      "Observability overhead — instrumented query time, tracing off vs on",
      "per-operator stats, metric publication and trace spans must cost "
      "<5% of a Fig.-12-style cached query");

  maxson::bench::BenchWorkspace workspace("obs_overhead");
  maxson::catalog::Catalog catalog;
  maxson::workload::BenchmarkSuiteOptions suite;
  suite.bytes_per_table = 6ull << 20;
  suite.max_rows = 30000;
  auto all_queries = maxson::workload::MakeTableIIQueries(suite);
  std::vector<BenchmarkQuery> queries;
  for (auto& q : all_queries) {
    if (q.name == "Q2") queries.push_back(std::move(q));
  }
  if (auto st = maxson::workload::GenerateBenchmarkTables(
          queries, workspace.dir() + "/warehouse", suite, &catalog);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  maxson::obs::MetricsRegistry registry;
  MaxsonConfig config;
  config.cache_root = workspace.dir() + "/cache";
  config.engine.default_database = "bench";
  config.predictor.epochs = 6;
  config.metrics = &registry;
  MaxsonSession session(&catalog, config);
  for (int day = 0; day < 14; ++day) {
    for (const BenchmarkQuery& q : queries) {
      for (int rep = 0; rep < 2; ++rep) {
        maxson::workload::QueryRecord record;
        record.date = day;
        record.paths = q.paths;
        session.RecordQuery(record);
      }
    }
  }
  if (auto st = session.TrainPredictor(8, 13); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (auto report = session.RunMidnightCycle(14); !report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }

  // Paired design: each pair runs the query once with tracing off and once
  // with it on, back to back, and the gate decides on the median of the
  // pairs' relative differences, so host drift over the run cancels within
  // each pair instead of reading as overhead. Which side runs first
  // alternates between pairs.
  const std::string& sql = queries[0].sql;
  const int kPairs = 31;
  for (int i = 0; i < 6; ++i) TimedRun(&session, sql, i % 2 == 1);  // warm up
  std::vector<double> off_runs, on_runs, diffs_pct;
  for (int i = 0; i < kPairs; ++i) {
    const bool on_first = i % 2 == 1;
    const double first = TimedRun(&session, sql, on_first);
    const double second = TimedRun(&session, sql, !on_first);
    const double off_s = on_first ? second : first;
    const double on_s = on_first ? first : second;
    off_runs.push_back(off_s);
    on_runs.push_back(on_s);
    diffs_pct.push_back(off_s <= 0 ? 0 : (on_s - off_s) / off_s * 100.0);
    session.ClearTrace();
  }
  const double off_s = Quantile(off_runs, 0.5);
  const double on_s = Quantile(on_runs, 0.5);
  const double overhead_pct = Quantile(diffs_pct, 0.5);
  const double q1_pct = Quantile(diffs_pct, 0.25);
  const double q3_pct = Quantile(diffs_pct, 0.75);
  const bool pass = overhead_pct < 5.0;
  std::printf("Q2 cached, %d alternating off/on pairs:\n", kPairs);
  std::printf("  metrics only (tracing off): %8.2f ms median\n", off_s * 1e3);
  std::printf("  metrics + trace spans:      %8.2f ms median\n", on_s * 1e3);
  std::printf("  tracing overhead:           %+7.1f%%  paired median, "
              "quartiles %+.1f%% .. %+.1f%%  (budget <5%%: %s)\n",
              overhead_pct, q1_pct, q3_pct, pass ? "PASS" : "FAIL");
  std::printf("  counter series published:   %zu\n",
              registry.CounterTotals().size());

  std::ofstream json("BENCH_observability.json", std::ios::trunc);
  json << "{\n  \"bench\": \"observability_overhead\",\n"
       << "  \"query\": \"Q2\",\n"
       << "  \"pairs\": " << kPairs << ",\n"
       << "  \"tracing_off_ms\": " << off_s * 1e3 << ",\n"
       << "  \"tracing_on_ms\": " << on_s * 1e3 << ",\n"
       << "  \"overhead_percent\": " << overhead_pct << ",\n"
       << "  \"overhead_q1_percent\": " << q1_pct << ",\n"
       << "  \"overhead_q3_percent\": " << q3_pct << ",\n"
       << "  \"budget_percent\": 5.0,\n"
       << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  json.close();
  std::printf("wrote BENCH_observability.json\n");
  return pass ? 0 : 1;
}
