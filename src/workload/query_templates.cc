#include "workload/query_templates.h"

#include <algorithm>

namespace maxson::workload {

namespace {

/// Table II of the paper: per-query JSONPath count, property count in the
/// JSON, nesting level, and average JSON size in bytes.
struct TableIIRow {
  const char* name;
  int jsonpath_count;
  int property_count;
  int nesting_level;
  int avg_json_bytes;
};

constexpr TableIIRow kTableII[] = {
    {"Q1", 11, 11, 1, 408},   {"Q2", 10, 17, 1, 655},
    {"Q3", 10, 206, 4, 4830}, {"Q4", 1, 215, 4, 4736},
    {"Q5", 12, 26, 3, 582},   {"Q6", 29, 107, 5, 2031},
    {"Q7", 3, 12, 2, 252},    {"Q8", 5, 17, 1, 368},
    {"Q9", 1, 319, 3, 21459}, {"Q10", 8, 90, 1, 8692},
};

std::string PathExpr(const std::string& column, const std::string& path,
                     const std::string& alias) {
  return "get_json_object(" + column + ", '" + path + "') AS " + alias;
}

}  // namespace

std::vector<BenchmarkQuery> MakeTableIIQueries(
    const BenchmarkSuiteOptions& options) {
  std::vector<BenchmarkQuery> queries;
  int query_index = 0;
  for (const TableIIRow& row : kTableII) {
    BenchmarkQuery q;
    q.name = row.name;
    q.table_spec.database = "bench";
    q.table_spec.table = "T" + std::to_string(query_index + 1);
    q.table_spec.num_properties = row.property_count;
    q.table_spec.nesting_level = row.nesting_level;
    q.table_spec.avg_json_bytes = row.avg_json_bytes;
    q.table_spec.rows_per_file = options.rows_per_file;
    q.table_spec.rows_per_group = options.rows_per_group;
    q.table_spec.seed = options.seed + static_cast<uint64_t>(query_index);
    // Q6's dataset is the schema-stable one in the paper ("the JSON pattern
    // has little change"), favoring Mison; give the large-document tables
    // (Q9, Q10) some schema variability instead.
    if (q.name == "Q9" || q.name == "Q10") {
      q.table_spec.schema_variability = 0.4;
    } else if (q.name == "Q3" || q.name == "Q4") {
      q.table_spec.schema_variability = 0.2;
    }
    // Row count: fixed byte budget per table, floored at 2000 rows, then
    // capped at max_rows (the cap wins, so small test suites stay small).
    q.table_spec.rows = std::min<uint64_t>(
        options.max_rows,
        std::max<uint64_t>(2000, options.bytes_per_table /
                                     static_cast<uint64_t>(
                                         std::max(1, row.avg_json_bytes))));

    // Build the JSONPath list: the first `jsonpath_count` scalar fields,
    // skipping nested container slots (f3..f3+nested-1 hold objects when
    // nesting > 1). Field f0 is numeric, f1 categorical, f2 numeric.
    const int nested_fields =
        row.nesting_level > 1 ? std::max(1, row.property_count / 6) : 0;
    std::vector<std::string> scalar_fields;
    for (int f = 0; f < row.property_count &&
                    static_cast<int>(scalar_fields.size()) <
                        row.jsonpath_count + 3;
         ++f) {
      const bool is_nested_slot =
          nested_fields > 0 && f > 2 && f <= 2 + nested_fields;
      if (!is_nested_slot) {
        scalar_fields.push_back("f" + std::to_string(f));
      }
    }
    // For deep tables, include one nested leaf path to exercise nesting.
    std::vector<std::string> chosen_paths;
    for (int i = 0;
         i < row.jsonpath_count && i < static_cast<int>(scalar_fields.size());
         ++i) {
      chosen_paths.push_back("$." + scalar_fields[static_cast<size_t>(i)]);
    }
    if (row.nesting_level > 1 && chosen_paths.size() > 1) {
      std::string nested_path = "$.f3";
      for (int d = 0; d < row.nesting_level - 1; ++d) {
        nested_path += ".n" + std::to_string(d);
      }
      // Replace the last path with a deep one so nesting matters. (Queries
      // with a single JSONPath keep their scalar path: Q9 filters and
      // projects the same path, the Fig. 12 pushdown scenario.)
      chosen_paths.back() = nested_path + ".leaf";
    }

    // SQL text.
    std::string select_list = "id";
    int alias_id = 0;
    for (const std::string& path : chosen_paths) {
      std::string alias = "p" + std::to_string(alias_id++);
      select_list += ", " + PathExpr("payload", path, alias);
      JsonPathLocation loc;
      loc.database = q.table_spec.database;
      loc.table = q.table_spec.table;
      loc.column = "payload";
      loc.path = path;
      q.paths.push_back(std::move(loc));
    }

    const std::string from = q.table_spec.database + "." + q.table_spec.table;
    if (q.name == "Q2") {
      // COUNT + GROUP BY with a JSON predicate (Fig. 12 pushdown target).
      q.sql = "SELECT get_json_object(payload, '$.f1') AS category, "
              "COUNT(*) AS cnt" +
              std::string(", sum(to_int(get_json_object(payload, '$.f2'))) "
                          "AS metric") +
              " FROM " + from +
              " WHERE to_int(get_json_object(payload, '$.f0')) > " +
              std::to_string(q.table_spec.rows * 3 / 4) +
              " GROUP BY get_json_object(payload, '$.f1') ORDER BY cnt DESC";
      q.has_json_predicate = true;
    } else if (q.name == "Q9") {
      // Single huge-document path, projected and filtered (selective JSON
      // predicate -> cache-table pushdown skips most row groups).
      q.sql = "SELECT id, " + PathExpr("payload", chosen_paths[0], "p0") +
              " FROM " + from +
              " WHERE to_int(get_json_object(payload, '" + chosen_paths[0] +
              "')) > " + std::to_string(q.table_spec.rows * 9 / 10);
      q.has_json_predicate = true;
    } else if (q.name == "Q1") {
      q.sql = "SELECT " + select_list + " FROM " + from +
              " WHERE date BETWEEN 20190101 AND 20190102 "
              "ORDER BY to_int(get_json_object(payload, '$.f2')) DESC LIMIT 10";
    } else {
      q.sql = "SELECT " + select_list + " FROM " + from +
              " WHERE date BETWEEN 20190101 AND 20190102";
    }
    queries.push_back(std::move(q));
    ++query_index;
  }
  return queries;
}

Status GenerateBenchmarkTables(const std::vector<BenchmarkQuery>& queries,
                               const std::string& warehouse_dir,
                               const BenchmarkSuiteOptions& options,
                               catalog::Catalog* catalog) {
  for (const BenchmarkQuery& q : queries) {
    MAXSON_ASSIGN_OR_RETURN(
        GeneratedTable table,
        GenerateJsonTable(q.table_spec, warehouse_dir, options.date_days,
                          catalog));
    (void)table;
  }
  return Status::Ok();
}

}  // namespace maxson::workload
