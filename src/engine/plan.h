#ifndef MAXSON_ENGINE_PLAN_H_
#define MAXSON_ENGINE_PLAN_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/expr.h"
#include "json/dom_parser.h"
#include "storage/corc_reader.h"
#include "storage/record_batch.h"
#include "storage/sarg.h"
#include "storage/schema.h"

namespace maxson::engine {

/// Request for one cached JSONPath column to be stitched into a scan's
/// output by the value combiner: read `cache_field` from the cache table at
/// `cache_table_dir` (file-per-split aligned with the raw table) and expose
/// it as `output_name` (kString, get_json_object rendering; NULL when the
/// path was absent).
struct CacheColumnRequest {
  std::string cache_table_dir;
  std::string cache_field;
  std::string output_name;
  /// Where the cached value originally came from: the raw table's string
  /// column and the JSONPath/XPath that was pre-parsed out of it. Filled by
  /// MaxsonParser from the cache registry entry; when non-empty they let a
  /// scan that finds the cache file corrupt re-derive this column from the
  /// raw split instead of failing the query. Hand-built plans may leave
  /// them empty — then corruption is surfaced as an error.
  std::string source_column;
  std::string source_path;
};

/// Leaf of a physical plan: one table scan, optionally combined with cache
/// columns, with SARGs pushed down to the raw table and — after Maxson's
/// rewrite — to the cache table (Algorithm 3).
struct ScanNode {
  std::string table_dir;
  storage::Schema table_schema;
  /// Qualifier used to prefix output columns in a join ("a" in "T a"); empty
  /// for single-table queries.
  std::string qualifier;
  /// Names of raw table columns to read (unqualified).
  std::vector<std::string> columns;
  /// Cached JSONPath columns to stitch in (populated by MaxsonParser).
  std::vector<CacheColumnRequest> cache_columns;
  /// Pushdown on raw columns.
  storage::SearchArgument raw_sarg;
  /// Pushdown on cache fields; SargLeaf::column names a cache_field.
  storage::SearchArgument cache_sarg;

  /// Output column name for raw column `name` ("a.mall_id" when qualified).
  std::string OutputName(const std::string& name) const {
    return qualifier.empty() ? name : qualifier + "." + name;
  }
};

/// One get_json_object/get_xml_object site bound to a path reference: the
/// string column it reads (an index into its operator's input schema) and
/// its literal path. The call node keeps its children and names the slot
/// (Expr::path_slot), so it prints as the call it is.
struct PathSlot {
  int column = -1;
  std::string path;

  bool operator==(const PathSlot&) const = default;
};

/// The operator scopes that evaluate expressions row by row; each has its
/// own path list, and each worker of a scope walks a row once per source
/// column however many of the scope's sites read it.
enum class PathScope {
  kJoinLeft,   // left join keys, over the left scan's output
  kJoinRight,  // right join keys, over the right scan's output
  kFilter,     // WHERE
  kAggregate,  // GROUP BY keys and aggregate arguments
  kFinalize,   // aggregate plans' projections and HAVING, per group
  kSort,       // ORDER BY keys of plain projections
  kProject,    // plain projections
};
inline constexpr size_t kNumPathScopes = 7;

/// Fully bound physical plan of one SELECT.
struct PhysicalPlan {
  ScanNode scan;
  /// Plan-rewrite cache accounting, filled by the PlanRewriter (MaxsonParser)
  /// during planning: get_json_object sites replaced by cache columns (hits),
  /// sites with no cache entry (misses), and sites whose entry was stale so
  /// the query fell back to raw parsing (fallbacks). Deterministic — rewrite
  /// runs single-threaded at plan time.
  uint64_t rewrite_cache_hits = 0;
  uint64_t rewrite_cache_misses = 0;
  uint64_t rewrite_cache_fallbacks = 0;
  std::optional<ScanNode> join_scan;
  /// Equi-join key expressions, pairwise (left[i] == right[i]); bound
  /// against the respective scan outputs.
  std::vector<ExprPtr> join_keys_left;
  std::vector<ExprPtr> join_keys_right;

  /// Residual filter over the (joined) scan output. SARGs are advisory row
  /// group exclusions; this filter re-checks every surviving row.
  ExprPtr where;

  bool distinct = false;
  std::vector<ExprPtr> projections;
  std::vector<std::string> projection_names;
  std::vector<ExprPtr> group_by;
  /// Post-aggregation filter; may contain aggregate nodes.
  ExprPtr having;
  bool has_aggregates = false;
  std::vector<std::pair<ExprPtr, bool>> order_by;  // expr, descending
  int64_t limit = -1;
  /// Path references per operator scope, indexed by PathScope; filled by
  /// the planner after the Maxson rewrite and column binding.
  std::array<std::vector<PathSlot>, kNumPathScopes> paths;
};

/// Runtime accounting of one physical operator, in pipeline execution
/// order (scan(s) first, limit last); EXPLAIN ANALYZE renders these onto
/// the plan tree. Counts (rows, units) are deterministic at every thread
/// count; the time fields are measured and therefore are not.
struct OperatorStats {
  std::string name;    // "Scan", "HashJoin", "Filter", "Aggregate", ...
  std::string detail;  // table name, predicate text, sort keys, ...
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Work units fanned across the pool: splits for scans, row chunks for
  /// the row-oriented operators.
  uint64_t units = 0;
  /// Cache columns stitched into a scan's output (nonzero = Maxson hit).
  uint64_t cache_columns = 0;
  /// Where parsing happened: path references bound in the operator's
  /// scopes, and rows their extractors walked (one per row and source
  /// column, at the row's first reference).
  uint64_t paths = 0;
  uint64_t rows_walked = 0;
  /// Operator wall time on the coordinating thread.
  double wall_seconds = 0;
  /// Summed per-worker task time; exceeds wall_seconds under parallelism.
  double cpu_seconds = 0;
};

/// Time and volume accounting of one query execution, split the way the
/// paper's Fig. 3 / Fig. 12 break down runtime: Read (I/O + decode), Parse
/// (JSON work inside get_json_object), Compute (everything else).
struct QueryMetrics {
  double plan_seconds = 0;
  double read_seconds = 0;
  double parse_seconds = 0;
  double compute_seconds = 0;
  storage::ReadStats read;
  json::ParseStats parse;
  /// Row groups whose skipping was shared from the cache reader to the
  /// primary reader (Algorithm 3 at work).
  uint64_t shared_skips = 0;
  uint64_t cache_columns_read = 0;
  /// Rows rejected by the Sparser-style raw-byte prefilter before parsing.
  uint64_t raw_filtered_rows = 0;
  /// Splits whose cache file failed validation (checksum, magic, structure)
  /// and were re-derived from the raw file instead. Deterministic: which
  /// splits are corrupt is a property of the files, not of scheduling.
  uint64_t cache_corruption_fallbacks = 0;
  /// On-demand parsing tier (json/ondemand_parser.h): rows walked, one
  /// per operator scope, row and source column. Deterministic: it depends
  /// on the plan and the rows, not on scheduling.
  uint64_t ondemand_records = 0;
  /// Plan-rewrite cache accounting, copied from the PhysicalPlan when the
  /// plan executes (see PhysicalPlan::rewrite_cache_*).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t plan_cache_fallbacks = 0;
  /// Per-operator runtime breakdown in pipeline order (filled by the
  /// executing engine; empty for the per-chunk partial accumulators).
  std::vector<OperatorStats> operators;

  double TotalSeconds() const {
    return read_seconds + parse_seconds + compute_seconds;
  }

  /// Folds another accumulator into this one; parallel operators give every
  /// split/chunk its own QueryMetrics and merge them in split order after
  /// the barrier, so counter totals are deterministic. Note that under
  /// parallel execution the *_seconds fields are summed CPU time across
  /// workers and can exceed the query's wall time.
  void Accumulate(const QueryMetrics& other) {
    plan_seconds += other.plan_seconds;
    read_seconds += other.read_seconds;
    parse_seconds += other.parse_seconds;
    compute_seconds += other.compute_seconds;
    read.Add(other.read);
    parse.Add(other.parse);
    shared_skips += other.shared_skips;
    cache_columns_read += other.cache_columns_read;
    raw_filtered_rows += other.raw_filtered_rows;
    cache_corruption_fallbacks += other.cache_corruption_fallbacks;
    ondemand_records += other.ondemand_records;
    plan_cache_hits += other.plan_cache_hits;
    plan_cache_misses += other.plan_cache_misses;
    plan_cache_fallbacks += other.plan_cache_fallbacks;
    for (const OperatorStats& op : other.operators) operators.push_back(op);
  }
};

/// Result rows plus execution metrics.
struct QueryResult {
  storage::RecordBatch batch;
  QueryMetrics metrics;
};

/// Hook invoked between logical planning and binding; Maxson's plan
/// modifier (Algorithm 1) implements this to replace get_json_object calls
/// with placeholders resolved from cache tables.
class PlanRewriter {
 public:
  virtual ~PlanRewriter() = default;

  /// Rewrites `plan` in place. Returns the number of placeholder
  /// substitutions performed (0 = plan unchanged).
  virtual Result<int> Rewrite(PhysicalPlan* plan) = 0;
};

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_PLAN_H_
