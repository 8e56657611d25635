#include <algorithm>
#include <filesystem>
#include <set>

#include "catalog/catalog.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "json/dom_parser.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"
#include "workload/query_templates.h"
#include "workload/trace.h"
#include "workload/trace_generator.h"
#include "workload/workload_stats.h"

namespace maxson::workload {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  static const Trace& SharedTrace() {
    static Trace* trace = new Trace(GenerateTrace(TraceGeneratorConfig{}));
    return *trace;
  }
};

TEST_F(TraceTest, GeneratesNonTrivialVolume) {
  const Trace& trace = SharedTrace();
  EXPECT_GT(trace.queries.size(), 10000u);
  EXPECT_EQ(trace.num_days, 60);
  EXPECT_EQ(trace.updates.size(), 60u * 60u);  // per table per day
}

TEST_F(TraceTest, DeterministicInSeed) {
  TraceGeneratorConfig config;
  config.num_days = 10;
  config.num_users = 5;
  const Trace a = GenerateTrace(config);
  const Trace b = GenerateTrace(config);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].query_id, b.queries[i].query_id);
    EXPECT_EQ(a.queries[i].date, b.queries[i].date);
    ASSERT_EQ(a.queries[i].paths.size(), b.queries[i].paths.size());
  }
}

TEST_F(TraceTest, RecurrenceSharesMatchPaper) {
  const RecurrenceSummary recurrence = SummarizeRecurrence(SharedTrace());
  // Paper: 82% recurring; 71% daily, 17% weekly among recurring.
  EXPECT_NEAR(recurrence.recurring_fraction, 0.82, 0.05);
  EXPECT_NEAR(recurrence.daily_fraction, 0.71, 0.08);
  EXPECT_NEAR(recurrence.weekly_fraction, 0.17, 0.08);
}

TEST_F(TraceTest, PowerLawMatchesPaperShape) {
  const auto counts = PathQueryCounts(SharedTrace());
  ASSERT_GT(counts.size(), 100u);
  // Sorted descending.
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i - 1].query_count, counts[i].query_count);
  }
  const PowerLawSummary power = SummarizePowerLaw(counts, 0.27);
  // Paper: 89% of traffic on 27% of the paths. Accept a generous band —
  // the shape, not the digit, is the claim.
  EXPECT_GT(power.traffic_share, 0.75);
  // Paper: each JSONPath requested by ~14 queries on average (we only need
  // "well above 1", i.e. heavy reuse).
  EXPECT_GT(power.mean_queries_per_path, 5.0);
}

TEST_F(TraceTest, DuplicateParseShareIsHigh) {
  // Paper: over 89% of parsing traffic is repetitive.
  EXPECT_GT(DuplicateParseTrafficShare(SharedTrace()), 0.8);
}

TEST_F(TraceTest, UpdatesPeakNearNoonAndRareAtMidnight) {
  const auto histogram = UpdateHourHistogram(SharedTrace());
  const uint64_t noon = histogram[12] + histogram[13];
  const uint64_t midnight = histogram[0] + histogram[23] + histogram[1];
  EXPECT_GT(noon, midnight * 3);
  const size_t peak_hour = static_cast<size_t>(
      std::max_element(histogram.begin(), histogram.end()) -
      histogram.begin());
  EXPECT_GE(peak_hour, 10u);
  EXPECT_LE(peak_hour, 15u);
}

TEST_F(TraceTest, QueriesSortedForReplay) {
  const Trace& trace = SharedTrace();
  for (size_t i = 1; i < trace.queries.size(); ++i) {
    const QueryRecord& prev = trace.queries[i - 1];
    const QueryRecord& cur = trace.queries[i];
    EXPECT_LE(prev.date, cur.date);
    if (prev.date == cur.date) {
      EXPECT_LE(prev.hour, cur.hour);
    }
  }
}

TEST_F(TraceTest, DailyCountsConsistentWithQueries) {
  TraceGeneratorConfig config;
  config.num_days = 5;
  config.num_users = 4;
  config.templates_per_user = 3;
  config.adhoc_queries_per_day = 2;
  const Trace trace = GenerateTrace(config);
  const DailyPathCounts counts = CollectDailyCounts(trace);
  uint64_t total_from_counts = 0;
  for (const auto& [key, days] : counts) {
    ASSERT_EQ(days.size(), 5u);
    for (int c : days) total_from_counts += static_cast<uint64_t>(c);
  }
  uint64_t total_from_queries = 0;
  for (const QueryRecord& q : trace.queries) {
    total_from_queries += q.paths.size();
  }
  EXPECT_EQ(total_from_counts, total_from_queries);
}

TEST(DataGeneratorTest, RecordsAreValidJsonWithExpectedFields) {
  JsonTableSpec spec;
  spec.table = "x";
  spec.num_properties = 17;
  spec.nesting_level = 1;
  spec.avg_json_bytes = 600;
  for (uint64_t row = 0; row < 50; ++row) {
    const std::string text = GenerateJsonRecord(spec, row);
    auto parsed = json::ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    ASSERT_TRUE(parsed->is_object());
    const json::JsonValue* f0 = parsed->Find("f0");
    ASSERT_NE(f0, nullptr);
    EXPECT_EQ(f0->int_value(), static_cast<int64_t>(row));
    const json::JsonValue* f1 = parsed->Find("f1");
    ASSERT_NE(f1, nullptr);
    EXPECT_EQ(f1->string_value(), "cat" + std::to_string(row % 10));
  }
}

TEST(DataGeneratorTest, NestedRecordsReachRequestedDepth) {
  JsonTableSpec spec;
  spec.table = "x";
  spec.num_properties = 30;
  spec.nesting_level = 4;
  spec.avg_json_bytes = 1500;
  const std::string text = GenerateJsonRecord(spec, 3);
  auto parsed = json::ParseJson(text);
  ASSERT_TRUE(parsed.ok());
  // f3 is a nested slot: f3.n0.n1.n2.leaf exists at depth 4.
  const json::JsonValue* node = parsed->Find("f3");
  ASSERT_NE(node, nullptr) << text;
  for (int d = 0; d < 3; ++d) {
    node = node->Find("n" + std::to_string(d));
    ASSERT_NE(node, nullptr) << text;
  }
  EXPECT_NE(node->Find("leaf"), nullptr);
}

TEST(DataGeneratorTest, AverageSizeNearTarget) {
  JsonTableSpec spec;
  spec.table = "x";
  spec.num_properties = 17;
  spec.avg_json_bytes = 2000;
  uint64_t total = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    total += GenerateJsonRecord(spec, static_cast<uint64_t>(i)).size();
  }
  const double avg = static_cast<double>(total) / n;
  EXPECT_GT(avg, 1500.0);
  EXPECT_LT(avg, 2600.0);
}

TEST(DataGeneratorTest, SchemaVariabilityChangesFieldOrder) {
  JsonTableSpec stable;
  stable.table = "x";
  stable.num_properties = 10;
  stable.schema_variability = 0.0;
  JsonTableSpec variable = stable;
  variable.schema_variability = 1.0;
  variable.seed = stable.seed;

  // Stable spec: f0 always leads. Variable spec: order shuffles sometimes.
  bool any_different_prefix = false;
  for (uint64_t row = 0; row < 30; ++row) {
    const std::string a = GenerateJsonRecord(stable, row);
    EXPECT_EQ(a.find("\"f0\""), 1u) << a;
    const std::string b = GenerateJsonRecord(variable, row);
    if (b.find("\"f0\"") != 1u) any_different_prefix = true;
  }
  EXPECT_TRUE(any_different_prefix);
}

TEST(DataGeneratorTest, GeneratedTableIsQueryable) {
  const std::string warehouse =
      (std::filesystem::temp_directory_path() /
       ("maxson_workload_test_" + std::to_string(::getpid())))
          .string();
  catalog::Catalog catalog;
  JsonTableSpec spec;
  spec.database = "mydb";
  spec.table = "gen";
  spec.rows = 500;
  spec.rows_per_file = 200;
  spec.rows_per_group = 50;
  auto table = GenerateJsonTable(spec, warehouse, 3, &catalog);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->rows, 500u);

  engine::QueryEngine engine(&catalog, engine::EngineConfig{});
  auto result = engine.Execute(
      "SELECT COUNT(*) AS n FROM mydb.gen WHERE "
      "to_int(get_json_object(payload, '$.f0')) < 100");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->batch.column(0).GetValue(0).int64_value(), 100);
  ASSERT_TRUE(storage::FileSystem::RemoveAll(warehouse).ok());
}

TEST(QueryTemplatesTest, TableIIShapesMatchPaper) {
  BenchmarkSuiteOptions options;
  const auto queries = MakeTableIIQueries(options);
  ASSERT_EQ(queries.size(), 10u);
  EXPECT_EQ(queries[0].name, "Q1");
  EXPECT_EQ(queries[0].table_spec.num_properties, 11);
  EXPECT_EQ(queries[5].name, "Q6");
  EXPECT_EQ(queries[5].table_spec.nesting_level, 5);
  EXPECT_EQ(queries[8].table_spec.avg_json_bytes, 21459);
  // Q2 and Q9 carry JSON predicates (Fig. 12 targets).
  EXPECT_TRUE(queries[1].has_json_predicate);
  EXPECT_TRUE(queries[8].has_json_predicate);
  EXPECT_FALSE(queries[0].has_json_predicate);
  // JSONPath counts follow Table II.
  EXPECT_EQ(queries[3].paths.size(), 1u);   // Q4
  EXPECT_EQ(queries[8].paths.size(), 1u);   // Q9
  EXPECT_EQ(queries[5].paths.size(), 29u);  // Q6
}

TEST(QueryTemplatesTest, QueriesParseAndRowCountsScaleWithSize) {
  BenchmarkSuiteOptions options;
  const auto queries = MakeTableIIQueries(options);
  for (const BenchmarkQuery& q : queries) {
    EXPECT_FALSE(q.sql.empty());
    EXPECT_GE(q.table_spec.rows, 2000u);
  }
  // Bigger documents -> fewer rows under the fixed byte budget.
  EXPECT_GT(queries[0].table_spec.rows, queries[8].table_spec.rows);
}

TEST(QueryTemplatesTest, GeneratedSuiteExecutesEndToEnd) {
  // Generate a miniature version of the suite and execute Q1/Q2/Q9.
  const std::string warehouse =
      (std::filesystem::temp_directory_path() /
       ("maxson_suite_test_" + std::to_string(::getpid())))
          .string();
  BenchmarkSuiteOptions options;
  options.bytes_per_table = 200 << 10;  // 200 KiB per table: fast
  options.max_rows = 1500;
  options.rows_per_file = 600;
  options.rows_per_group = 100;
  auto queries = MakeTableIIQueries(options);
  catalog::Catalog catalog;
  ASSERT_TRUE(
      GenerateBenchmarkTables(queries, warehouse, options, &catalog).ok());

  engine::QueryEngine engine(&catalog, engine::EngineConfig{});
  // max_rows caps every table, below the suite's 2000-row floor too.
  for (const BenchmarkQuery& q : queries) {
    EXPECT_LE(q.table_spec.rows, options.max_rows) << q.name;
    auto count = engine.Execute("SELECT COUNT(*) AS n FROM bench." +
                                q.table_spec.table);
    ASSERT_TRUE(count.ok()) << q.name << ": " << count.status();
    ASSERT_EQ(count->batch.num_rows(), 1u);
    EXPECT_LE(count->batch.column(0).GetInt64(0),
              static_cast<int64_t>(options.max_rows))
        << q.name;
  }
  for (const char* name : {"Q1", "Q2", "Q9"}) {
    const auto it =
        std::find_if(queries.begin(), queries.end(),
                     [&](const BenchmarkQuery& q) { return q.name == name; });
    ASSERT_NE(it, queries.end());
    auto result = engine.Execute(it->sql);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status();
    EXPECT_GT(result->metrics.parse.records_parsed, 0u) << name;
  }
  ASSERT_TRUE(storage::FileSystem::RemoveAll(warehouse).ok());
}

}  // namespace
}  // namespace maxson::workload
