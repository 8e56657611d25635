// PlanValidator unit tests: each malformed-plan class must produce its
// specific validation error (the invariant id is embedded in the Status
// message as "[invariant-id]"), and plans the real planner/rewriter emit
// must pass with a zero maxson_plan_validation_failures counter.

#include "engine/plan_validator.h"

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "gtest/gtest.h"
#include "obs/metrics_registry.h"
#include "storage/file_system.h"
#include "storage/types.h"
#include "workload/data_generator.h"

namespace maxson::engine {
namespace {

using storage::FileSystem;
using storage::TypeKind;
using storage::Value;

ExprPtr BoundColumn(const std::string& name, int index) {
  ExprPtr expr = Expr::ColumnRef(name);
  expr->column_index = index;
  return expr;
}

/// Minimal well-formed plan: SELECT id FROM /wh/db.t (id, date, payload).
PhysicalPlan MakeValidPlan() {
  PhysicalPlan plan;
  plan.scan.table_dir = "/wh/db.t";
  plan.scan.table_schema.AddField("id", TypeKind::kInt64);
  plan.scan.table_schema.AddField("date", TypeKind::kInt64);
  plan.scan.table_schema.AddField("payload", TypeKind::kString);
  plan.scan.columns = {"id", "payload"};
  plan.projections.push_back(BoundColumn("id", 0));
  plan.projection_names = {"id"};
  return plan;
}

CacheColumnRequest CacheRequest(const std::string& dir,
                                const std::string& field) {
  CacheColumnRequest req;
  req.cache_table_dir = dir;
  req.cache_field = field;
  req.output_name = field;
  return req;
}

TEST(PlanValidatorTest, WellFormedPlanPasses) {
  const PhysicalPlan plan = MakeValidPlan();
  EXPECT_TRUE(ValidatePlan(plan, nullptr).ok());
}

TEST(PlanValidatorTest, CachePlanPassesWhenBindingIsLive) {
  PhysicalPlan plan = MakeValidPlan();
  plan.scan.cache_columns.push_back(
      CacheRequest("/cache/db.t", "payload___f0"));
  const std::vector<CacheBinding> bindings = {
      {"/cache/db.t", "payload___f0"}};
  EXPECT_TRUE(ValidatePlan(plan, &bindings).ok());
}

TEST(PlanValidatorTest, DanglingCacheColumnFails) {
  PhysicalPlan plan = MakeValidPlan();
  plan.scan.cache_columns.push_back(
      CacheRequest("/cache/db.t", "payload___f0"));
  // Registry snapshot no longer carries the entry the rewrite bound to.
  const std::vector<CacheBinding> bindings;
  const Status status = ValidatePlan(plan, &bindings);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("[cache-binding]"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find("no live registry entry"),
            std::string::npos)
      << status;
  // The failure report embeds the EXPLAIN rendering of the offending plan.
  EXPECT_NE(status.message().find("plan:"), std::string::npos) << status;
}

TEST(PlanValidatorTest, PushdownOfUncachedPathFails) {
  PhysicalPlan plan = MakeValidPlan();
  plan.scan.cache_columns.push_back(
      CacheRequest("/cache/db.t", "payload___f0"));
  const std::vector<CacheBinding> bindings = {
      {"/cache/db.t", "payload___f0"}};
  // Predicate pushed to the cache reader on a field the cache file does not
  // carry: the reader would prune row groups it has no statistics for.
  storage::SargLeaf leaf;
  leaf.column = "payload___f9";
  leaf.op = storage::SargOp::kEq;
  leaf.literal = Value::String("x");
  plan.scan.cache_sarg.AddLeaf(std::move(leaf));
  const Status status = ValidatePlan(plan, &bindings);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[pushdown-soundness]"), std::string::npos)
      << status;
}

TEST(PlanValidatorTest, RawSargOnUnknownColumnFails) {
  PhysicalPlan plan = MakeValidPlan();
  storage::SargLeaf leaf;
  leaf.column = "nope";
  plan.scan.raw_sarg.AddLeaf(std::move(leaf));
  const Status status = ValidatePlan(plan, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[pushdown-soundness]"), std::string::npos)
      << status;
}

/// MakeValidPlan plus get_json_object(payload, '$.a') bound to slot 0 of
/// the projection scope, as the planner binds it.
PhysicalPlan MakePathPlan() {
  PhysicalPlan plan = MakeValidPlan();
  std::vector<ExprPtr> args;
  args.push_back(BoundColumn("payload", 1));
  args.push_back(Expr::Literal(Value::String("$.a")));
  ExprPtr call = Expr::Function("get_json_object", std::move(args));
  call->path_slot = 0;
  plan.projections.push_back(std::move(call));
  plan.projection_names.push_back("a");
  plan.paths[static_cast<size_t>(PathScope::kProject)].push_back({1, "$.a"});
  return plan;
}

void ExpectPathBindingViolation(const PhysicalPlan& plan,
                                const std::string& detail) {
  const Status status = ValidatePlan(plan, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[path-binding]"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find(detail), std::string::npos) << status;
}

TEST(PlanValidatorTest, BoundPathReferencePasses) {
  EXPECT_TRUE(ValidatePlan(MakePathPlan(), nullptr).ok());
}

TEST(PlanValidatorTest, PathReferenceOutsideItsScopesListFails) {
  PhysicalPlan plan = MakePathPlan();
  plan.projections.back()->path_slot = 3;
  ExpectPathBindingViolation(plan, "names slot 3 of a 1-path scope");
  // The slot recorded under another operator's scope is just as absent.
  PhysicalPlan moved = MakePathPlan();
  std::swap(moved.paths[static_cast<size_t>(PathScope::kProject)],
            moved.paths[static_cast<size_t>(PathScope::kFilter)]);
  ExpectPathBindingViolation(moved, "names slot 0 of a 0-path scope");
}

TEST(PlanValidatorTest, PathReferenceOnNonStringColumnFails) {
  PhysicalPlan plan = MakePathPlan();
  Expr& call = *plan.projections.back();
  call.children[0] = BoundColumn("id", 0);
  plan.paths[static_cast<size_t>(PathScope::kProject)][0].column = 0;
  ExpectPathBindingViolation(plan, "is not a literal path over a string");
}

TEST(PlanValidatorTest, PathReferenceReadingAnotherSitesSlotFails) {
  PhysicalPlan plan = MakePathPlan();
  plan.paths[static_cast<size_t>(PathScope::kProject)][0].path = "$.b";
  ExpectPathBindingViolation(plan, "does not read its slot");
}

TEST(PlanValidatorTest, FilterProjectSchemaMismatchFails) {
  PhysicalPlan plan = MakeValidPlan();
  // Scan output is (id, payload): the filter's 'payload' reference carries
  // a stale index pointing at 'id' — the schema changed after binding.
  plan.where = Expr::Binary(BinaryOp::kEq, BoundColumn("payload", 0),
                            Expr::Literal(Value::String("x")));
  const Status status = ValidatePlan(plan, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[column-resolution]"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find("WHERE"), std::string::npos) << status;
}

TEST(PlanValidatorTest, OutOfRangeProjectionIndexFails) {
  PhysicalPlan plan = MakeValidPlan();
  plan.projections[0] = BoundColumn("id", 7);
  const Status status = ValidatePlan(plan, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[column-resolution]"), std::string::npos)
      << status;
}

TEST(PlanValidatorTest, UnboundColumnFails) {
  PhysicalPlan plan = MakeValidPlan();
  plan.projections[0] = Expr::ColumnRef("id");  // column_index still -1
  const Status status = ValidatePlan(plan, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[column-resolution]"), std::string::npos)
      << status;
}

TEST(PlanValidatorTest, MisalignedDualReaderSplitsFail) {
  // Two cache tables in one scan: the value combiner opens one cache file
  // per raw split, so every request must target the same cache directory.
  PhysicalPlan plan = MakeValidPlan();
  plan.scan.cache_columns.push_back(
      CacheRequest("/cache/db.t", "payload___f0"));
  plan.scan.cache_columns.push_back(
      CacheRequest("/cache/other.t", "payload___f1"));
  const Status status = ValidatePlan(plan, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[dual-reader-alignment]"),
            std::string::npos)
      << status;
}

TEST(PlanValidatorTest, CacheTableEqualToRawTableFails) {
  PhysicalPlan plan = MakeValidPlan();
  plan.scan.cache_columns.push_back(
      CacheRequest(plan.scan.table_dir, "payload___f0"));
  const Status status = ValidatePlan(plan, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[dual-reader-alignment]"),
            std::string::npos)
      << status;
}

TEST(PlanValidatorTest, ProjectionNameCountMismatchFails) {
  PhysicalPlan plan = MakeValidPlan();
  plan.projection_names.push_back("extra");
  const Status status = ValidatePlan(plan, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[operator-schema]"), std::string::npos)
      << status;
}

TEST(PlanValidatorTest, AggregateInWhereFails) {
  PhysicalPlan plan = MakeValidPlan();
  plan.where = Expr::Binary(BinaryOp::kGt,
                            Expr::Aggregate(AggKind::kCount, nullptr),
                            Expr::Literal(Value::Int64(1)));
  const Status status = ValidatePlan(plan, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[aggregate-placement]"), std::string::npos)
      << status;
}

TEST(PlanValidatorTest, AggregateProjectionWithoutFlagFails) {
  PhysicalPlan plan = MakeValidPlan();
  plan.projections[0] = Expr::Aggregate(AggKind::kCount, nullptr);
  plan.projection_names = {"count"};
  // has_aggregates left false: the executor would evaluate row-at-a-time.
  const Status status = ValidatePlan(plan, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[aggregate-placement]"), std::string::npos)
      << status;
}

// ---- Engine wiring: validation runs after the rewrite, failures count ----

/// Rewriter that injects a CacheColumnRequest pointing the cache reader at
/// the raw table directory — a dual-reader-alignment violation the
/// validator must catch after Maxson's rewrite hook runs.
class CorruptingRewriter : public PlanRewriter {
 public:
  Result<int> Rewrite(PhysicalPlan* plan) override {
    plan->scan.cache_columns.push_back(
        CacheRequest(plan->scan.table_dir, "payload___f0"));
    return 1;
  }
};

class PlanValidatorEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_planval_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(FileSystem::RemoveAll(root_).ok());
    workload::JsonTableSpec spec;
    spec.database = "db";
    spec.table = "t";
    spec.num_properties = 4;
    spec.avg_json_bytes = 120;
    spec.rows = 200;
    spec.rows_per_file = 100;
    spec.rows_per_group = 50;
    spec.seed = 7;
    auto generated =
        workload::GenerateJsonTable(spec, root_ + "/warehouse", 2, &catalog_);
    ASSERT_TRUE(generated.ok()) << generated.status();
  }
  void TearDown() override { ASSERT_TRUE(FileSystem::RemoveAll(root_).ok()); }

  EngineConfig Config() const {
    EngineConfig config;
    config.default_database = "db";
    config.num_threads = 1;
    return config;
  }

  std::string root_;
  catalog::Catalog catalog_;
};

TEST_F(PlanValidatorEngineTest, CorruptRewriteFailsQueryAndBumpsCounter) {
  obs::MetricsRegistry registry;
  QueryEngine engine(&catalog_, Config());
  engine.set_metrics_registry(&registry);
  CorruptingRewriter rewriter;
  engine.set_plan_rewriter(&rewriter);

  auto result = engine.Execute("SELECT id FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("[dual-reader-alignment]"),
            std::string::npos)
      << result.status();
  EXPECT_EQ(registry.CounterTotals()["maxson_plan_validation_failures"], 1u);

  // Plan() runs the same validation.
  auto plan = engine.Plan("SELECT id FROM t");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(registry.CounterTotals()["maxson_plan_validation_failures"], 2u);
}

TEST_F(PlanValidatorEngineTest, PlannerOutputPassesWithZeroFailures) {
  obs::MetricsRegistry registry;
  QueryEngine engine(&catalog_, Config());
  engine.set_metrics_registry(&registry);

  for (const char* sql : {
           "SELECT id FROM t WHERE id < 100",
           "SELECT id, get_json_object(payload, '$.f0') AS a FROM t "
           "ORDER BY id LIMIT 5",
           "SELECT get_json_object(payload, '$.f1') AS k, COUNT(*) FROM t "
           "GROUP BY k",
       }) {
    auto result = engine.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
  }
  EXPECT_EQ(registry.CounterTotals()["maxson_plan_validation_failures"], 0u);
}

/// Rewriter that injects a cache request against a cache table directory
/// distinct from the raw table — structurally valid, so the verdict hangs
/// entirely on whether the binding is live in the snapshot.
class CachingRewriter : public PlanRewriter {
 public:
  explicit CachingRewriter(std::string cache_dir)
      : cache_dir_(std::move(cache_dir)) {}
  Result<int> Rewrite(PhysicalPlan* plan) override {
    plan->scan.cache_columns.push_back(
        CacheRequest(cache_dir_, "payload___f0"));
    return 1;
  }

 private:
  std::string cache_dir_;
};

TEST_F(PlanValidatorEngineTest, VerdictFollowsBindingSnapshotChanges) {
  obs::MetricsRegistry registry;
  QueryEngine engine(&catalog_, Config());
  engine.set_metrics_registry(&registry);
  const std::string cache_dir = root_ + "/cache/db.t";
  CachingRewriter rewriter(cache_dir);
  engine.set_plan_rewriter(&rewriter);

  // Live binding: repeated planning of the same SQL passes every time (in
  // Release the second call is served from the verdict cache).
  auto live = std::make_shared<const std::vector<CacheBinding>>(
      std::vector<CacheBinding>{{cache_dir, "payload___f0"}});
  engine.set_cache_binding_source([&] { return live; });
  ASSERT_TRUE(engine.Plan("SELECT id FROM t").ok());
  ASSERT_TRUE(engine.Plan("SELECT id FROM t").ok());
  EXPECT_EQ(registry.CounterTotals()["maxson_plan_validation_failures"], 0u);

  // The registry drops the entry (new snapshot object): the same SQL must
  // be re-validated against the new bindings and now fail — a cached
  // verdict keyed only on the SQL text would wrongly keep passing it.
  live = std::make_shared<const std::vector<CacheBinding>>();
  auto plan = engine.Plan("SELECT id FROM t");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("[cache-binding]"),
            std::string::npos)
      << plan.status();
  EXPECT_EQ(registry.CounterTotals()["maxson_plan_validation_failures"], 1u);
}

TEST_F(PlanValidatorEngineTest, ReleaseKnobDisablesValidation) {
  EngineConfig config = Config();
  config.validate_plans = false;
  QueryEngine engine(&catalog_, config);
  CorruptingRewriter rewriter;
  engine.set_plan_rewriter(&rewriter);
  auto result = engine.Execute("SELECT id FROM t");
#ifdef NDEBUG
  // Validation is off: the corrupt plan reaches execution, which reports a
  // read error against the bogus cache directory instead of kInternal.
  if (!result.ok()) {
    EXPECT_NE(result.status().code(), StatusCode::kInternal)
        << result.status();
  }
#else
  // Debug builds validate unconditionally.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
#endif
}

}  // namespace
}  // namespace maxson::engine
