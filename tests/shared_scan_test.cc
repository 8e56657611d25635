// Tests of the morsel-driven shared-scan executor (exec/shared_scan.h).
//
// The manager-level tests drive SharedScanManager directly with a synthetic
// pass callback, staging subscriptions *before* any Collect so the
// coalescing counts are exact and deterministic: K subscribers over M
// morsels must execute M passes and coalesce (K-1)*M registrations, with
// byte-identical batches fanned out to every subscriber. They also pin the
// attach-safety rules (frozen column unions, predicate-identity gating,
// retired passes never rejoined, validity keying) and the cooperative
// cancellation contract.
//
// The end-to-end tests run real queries over generated JSON tables —
// through the session across sharing modes, morsel sizes and thread counts
// against an oracle that reads the part files itself, and through
// MaxsonServer with truly concurrent clients — asserting results stay
// byte-identical to the ground truth while the maxson_sharedscan_*
// counters prove passes were actually shared. Overlap at the server level is timing-
// dependent, so coalescing there is asserted with a bounded retry loop;
// correctness is asserted on every attempt.

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/maxson.h"
#include "engine/fingerprint.h"
#include "exec/shared_scan.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "json/json_path.h"
#include "obs/metrics_registry.h"
#include "serve/server.h"
#include "storage/corc_reader.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"

namespace maxson {
namespace {

using exec::Morsel;
using exec::ScanInterest;
using exec::ScanPredicate;
using exec::ScanSubscription;
using exec::SharedPassOutput;
using exec::SharedScanManager;
using exec::SharedScanPassFn;
using exec::ThreadPool;

// ---------------------------------------------------------------------------
// Manager-level tests: synthetic passes, deterministic staged coalescing.
// ---------------------------------------------------------------------------

constexpr uint64_t kPassInputBytes = 100;
constexpr int kRowsPerMorsel = 2;

std::vector<Morsel> MakeMorsels(size_t n) {
  std::vector<Morsel> morsels;
  for (size_t i = 0; i < n; ++i) {
    Morsel m;
    m.split_index = i;
    m.split_path = "split" + std::to_string(i);
    m.begin_stripe = 0;
    m.end_stripe = 1;
    morsels.push_back(std::move(m));
  }
  return morsels;
}

ScanInterest MakeInterest(std::vector<std::string> columns,
                          const std::vector<Morsel>& morsels,
                          uint64_t validity = 1, ScanPredicate predicate = {}) {
  ScanInterest interest;
  interest.table_key = "warehouse/db/t";
  interest.validity = validity;
  interest.columns = std::move(columns);
  interest.predicate = std::move(predicate);
  interest.morsels = morsels;
  return interest;
}

/// A pass callback that counts executions and produces a batch whose cell
/// values encode (split, union-column position, row) — so fan-out identity
/// and per-subscriber column mappings are checkable cell by cell.
SharedScanPassFn CountingPass(std::atomic<int>* passes,
                              std::atomic<int>* last_predicates = nullptr) {
  return [passes, last_predicates](
             const Morsel& morsel, size_t /*ordinal*/,
             const std::vector<std::string>& union_columns,
             const std::vector<ScanPredicate>& predicates)
             -> Result<SharedPassOutput> {
    passes->fetch_add(1);
    if (last_predicates != nullptr) {
      last_predicates->store(static_cast<int>(predicates.size()));
    }
    storage::Schema schema;
    for (const std::string& column : union_columns) {
      schema.AddField(column, storage::TypeKind::kInt64);
    }
    SharedPassOutput out;
    out.batch = storage::RecordBatch(schema);
    for (int row = 0; row < kRowsPerMorsel; ++row) {
      std::vector<storage::Value> values;
      values.reserve(union_columns.size());
      for (size_t c = 0; c < union_columns.size(); ++c) {
        values.push_back(storage::Value::Int64(
            static_cast<int64_t>(morsel.split_index) * 100 +
            static_cast<int64_t>(c) * 10 + row));
      }
      out.batch.AppendRow(values);
    }
    out.input_bytes = kPassInputBytes;
    return out;
  };
}

/// A pushed-down `column < literal` predicate with its canonical key, so
/// two subscriptions can agree (or disagree) on pruning identity.
ScanPredicate PredicateLt(const std::string& column, int64_t literal) {
  ScanPredicate predicate;
  storage::SargLeaf leaf;
  leaf.column = column;
  leaf.op = storage::SargOp::kLt;
  leaf.literal = storage::Value::Int64(literal);
  predicate.raw_sarg.AddLeaf(std::move(leaf));
  predicate.key =
      ScanPredicate::KeyFor(predicate.raw_sarg, predicate.cache_sarg);
  return predicate;
}

TEST(SharedScanManagerTest, StagedSubscribersCoalesceToOnePassPerMorsel) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(3);
  std::atomic<int> passes{0};
  constexpr size_t kSubscribers = 4;

  // Stage every subscription before any Collect: all registrations merge
  // into pending tasks, so the counts below are exact, not timing-lucky.
  std::vector<std::unique_ptr<ScanSubscription>> subs;
  for (size_t i = 0; i < kSubscribers; ++i) {
    subs.push_back(manager.Subscribe(MakeInterest({"a", "b"}, morsels),
                                     CountingPass(&passes)));
    ASSERT_EQ(subs.back()->num_morsels(), morsels.size());
  }
  ThreadPool pool(2);
  for (auto& sub : subs) {
    ASSERT_TRUE(sub->Collect(&pool).ok());
  }

  EXPECT_EQ(passes.load(), 3);
  const auto stats = manager.stats();
  EXPECT_EQ(stats.subscribers, kSubscribers);
  EXPECT_EQ(stats.parse_passes, 3u);
  EXPECT_EQ(stats.coalesced_parses, (kSubscribers - 1) * 3);
  EXPECT_EQ(stats.saved_bytes, (kSubscribers - 1) * 3 * kPassInputBytes);
  EXPECT_EQ(stats.groups_opened, 1u);

  for (size_t ordinal = 0; ordinal < morsels.size(); ++ordinal) {
    // Byte-identical fan-out: every subscriber sees the same batch.
    const std::string fp = engine::FingerprintBatch(subs[0]->batch(ordinal));
    int executors = 0;
    for (auto& sub : subs) {
      EXPECT_EQ(engine::FingerprintBatch(sub->batch(ordinal)), fp);
      executors += sub->executed_by_self(ordinal) ? 1 : 0;
    }
    // Exactly one subscription ran the pass; the rest rode the result.
    EXPECT_EQ(executors, 1);
  }
}

TEST(SharedScanManagerTest, UnionColumnsMapBackByNamePerSubscriber) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  auto a =
      manager.Subscribe(MakeInterest({"a"}, morsels), CountingPass(&passes));
  // b's interest order differs from the union's first-seen order {a, b}.
  auto b = manager.Subscribe(MakeInterest({"b", "a"}, morsels),
                             CountingPass(&passes));
  ThreadPool pool(1);
  ASSERT_TRUE(a->Collect(&pool).ok());
  ASSERT_TRUE(b->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 2);

  for (size_t ordinal = 0; ordinal < morsels.size(); ++ordinal) {
    const auto mapping = b->ColumnMapping(ordinal);
    ASSERT_EQ(mapping.size(), 2u);
    const auto& batch = b->batch(ordinal);
    EXPECT_EQ(batch.schema().field(mapping[0]).name, "b");
    EXPECT_EQ(batch.schema().field(mapping[1]).name, "a");
    // Cell values encode the union position, so a correct mapping reads
    // back b's columns regardless of the batch's physical column order.
    for (int row = 0; row < kRowsPerMorsel; ++row) {
      EXPECT_EQ(batch.column(mapping[0]).GetValue(row).int64_value(),
                static_cast<int64_t>(ordinal) * 100 +
                    static_cast<int64_t>(mapping[0]) * 10 + row);
    }
  }
}

TEST(SharedScanManagerTest, PendingPassesMergePredicatesAsDisjunction) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  std::atomic<int> predicate_count{0};
  auto a = manager.Subscribe(
      MakeInterest({"a"}, morsels, 1, PredicateLt("a", 5)),
      CountingPass(&passes, &predicate_count));
  auto b = manager.Subscribe(
      MakeInterest({"a"}, morsels, 1, PredicateLt("a", 7)),
      CountingPass(&passes, &predicate_count));
  ThreadPool pool(1);
  ASSERT_TRUE(a->Collect(&pool).ok());
  ASSERT_TRUE(b->Collect(&pool).ok());
  // One pass per morsel, pruning with both subscribers' predicates OR'd.
  EXPECT_EQ(passes.load(), 2);
  EXPECT_EQ(predicate_count.load(), 2);
  EXPECT_EQ(manager.stats().coalesced_parses, 2u);
}

TEST(SharedScanManagerTest, CompletedPassesJoinOnlyCoveredSubscribers) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  ThreadPool pool(1);

  auto a = manager.Subscribe(MakeInterest({"a", "b"}, morsels),
                             CountingPass(&passes));
  ASSERT_TRUE(a->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 2);
  EXPECT_EQ(manager.stats().saved_bytes, 0u);

  // Same-coverage late arrival attaches to the done, unreleased passes:
  // no new work, and the attach reports the bytes it avoided.
  auto b =
      manager.Subscribe(MakeInterest({"a"}, morsels), CountingPass(&passes));
  ASSERT_TRUE(b->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 2);
  EXPECT_EQ(manager.stats().coalesced_parses, 2u);
  EXPECT_EQ(manager.stats().saved_bytes, 2 * kPassInputBytes);
  for (size_t ordinal = 0; ordinal < morsels.size(); ++ordinal) {
    EXPECT_FALSE(b->executed_by_self(ordinal));
  }

  // A column outside the frozen union cannot attach: fresh passes.
  auto c = manager.Subscribe(MakeInterest({"a", "c"}, morsels),
                             CountingPass(&passes));
  ASSERT_TRUE(c->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 4);
}

TEST(SharedScanManagerTest, CompletedPassesGateAttachOnPredicateIdentity) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  ThreadPool pool(1);

  // a's passes prune with `a < 5`; they do NOT read all row groups.
  auto a = manager.Subscribe(
      MakeInterest({"a"}, morsels, 1, PredicateLt("a", 5)),
      CountingPass(&passes));
  ASSERT_TRUE(a->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 2);

  // Identical predicate key: safe to attach to the frozen passes.
  auto same = manager.Subscribe(
      MakeInterest({"a"}, morsels, 1, PredicateLt("a", 5)),
      CountingPass(&passes));
  ASSERT_TRUE(same->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 2);

  // A wider predicate might need row groups a's pruning skipped: fresh
  // passes, never a silent under-read.
  auto wider = manager.Subscribe(
      MakeInterest({"a"}, morsels, 1, PredicateLt("a", 7)),
      CountingPass(&passes));
  ASSERT_TRUE(wider->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 4);
}

TEST(SharedScanManagerTest, ValidityChangeStartsAFreshGroup) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  // Same table, different cache-validity stamps (a mid-run invalidation):
  // the subscriptions must not share, even staged concurrently.
  auto old_state = manager.Subscribe(MakeInterest({"a"}, morsels, 1),
                                     CountingPass(&passes));
  auto new_state = manager.Subscribe(MakeInterest({"a"}, morsels, 2),
                                     CountingPass(&passes));
  ThreadPool pool(1);
  ASSERT_TRUE(old_state->Collect(&pool).ok());
  ASSERT_TRUE(new_state->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 4);
  const auto stats = manager.stats();
  EXPECT_EQ(stats.coalesced_parses, 0u);
  EXPECT_EQ(stats.groups_opened, 2u);
}

TEST(SharedScanManagerTest, RetiredPassesAreNeverRejoined) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  ThreadPool pool(1);

  auto a =
      manager.Subscribe(MakeInterest({"a"}, morsels), CountingPass(&passes));
  ASSERT_TRUE(a->Collect(&pool).ok());
  // a consumes and releases everything: the passes retire and free their
  // decoded rows. Sharing is a concurrency window, not a cache.
  for (size_t ordinal = 0; ordinal < morsels.size(); ++ordinal) {
    a->Release(ordinal);
  }

  auto late =
      manager.Subscribe(MakeInterest({"a"}, morsels), CountingPass(&passes));
  ASSERT_TRUE(late->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 4);
  EXPECT_EQ(manager.stats().coalesced_parses, 0u);
}

TEST(SharedScanManagerTest, CancelledSubscriberLeavesCoSubscriberWorking) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(3);
  std::atomic<int> passes{0};
  auto worker = manager.Subscribe(MakeInterest({"a"}, morsels),
                                  CountingPass(&passes));
  auto quitter = manager.Subscribe(MakeInterest({"a"}, morsels),
                                   CountingPass(&passes));
  ThreadPool pool(1);

  // Cancel before collecting: the quitter claims nothing and reports
  // Cancelled without executing a single pass.
  quitter->Cancel();
  const Status cancelled = quitter->Collect(&pool);
  EXPECT_TRUE(cancelled.IsCancelled()) << cancelled;
  EXPECT_EQ(passes.load(), 0);

  // The co-subscriber is unaffected: it claims and runs the passes itself.
  ASSERT_TRUE(worker->Collect(&pool).ok());
  EXPECT_EQ(passes.load(), 3);
  for (size_t ordinal = 0; ordinal < morsels.size(); ++ordinal) {
    EXPECT_EQ(worker->batch(ordinal).num_rows(),
              static_cast<size_t>(kRowsPerMorsel));
  }
  // Destroying the cancelled subscription consumes its registrations
  // without disturbing the worker's still-held outputs.
  quitter.reset();
  EXPECT_EQ(worker->batch(0).num_rows(), static_cast<size_t>(kRowsPerMorsel));

  // The external cancel flag (the executor's ExecContext cancel) is
  // honoured the same way.
  auto flagged = manager.Subscribe(MakeInterest({"a"}, morsels),
                                   CountingPass(&passes));
  std::atomic<bool> cancel_flag{true};
  EXPECT_TRUE(flagged->Collect(&pool, &cancel_flag).IsCancelled());
}

TEST(SharedScanManagerTest, PassFailurePropagatesToEverySubscriber) {
  SharedScanManager manager;
  const auto morsels = MakeMorsels(2);
  std::atomic<int> passes{0};
  const SharedScanPassFn failing =
      [&passes](const Morsel&, size_t, const std::vector<std::string>&,
                const std::vector<ScanPredicate>&) -> Result<SharedPassOutput> {
    passes.fetch_add(1);
    return Status::IoError("disk on fire");
  };
  auto a = manager.Subscribe(MakeInterest({"a"}, morsels), failing);
  auto b = manager.Subscribe(MakeInterest({"a"}, morsels), failing);
  ThreadPool pool(1);
  const Status first = a->Collect(&pool);
  EXPECT_FALSE(first.ok());
  // b never re-runs the failed passes; it sees the published failure.
  const Status second = b->Collect(&pool);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(passes.load(), 2);
}

// ---------------------------------------------------------------------------
// End-to-end tests: real queries over a generated JSON table.
// ---------------------------------------------------------------------------

class SharedScanE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_shared_scan_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
    workload::JsonTableSpec spec;
    spec.database = "db";
    spec.table = "t";
    spec.num_properties = 4;
    spec.avg_json_bytes = 120;
    spec.rows = 600;
    spec.rows_per_file = 150;  // 4 splits -> 4 morsels per default scan
    spec.rows_per_group = 50;
    spec.seed = 7;
    auto generated =
        workload::GenerateJsonTable(spec, root_ + "/warehouse", 1, &catalog_);
    ASSERT_TRUE(generated.ok()) << generated.status();

    core::MaxsonConfig config;
    config.cache_root = root_ + "/cache";
    config.engine.default_database = "db";
    config.engine.num_threads = 2;
    config.metrics = &metrics_;
    session_ = std::make_unique<core::MaxsonSession>(&catalog_, config);
  }
  void TearDown() override {
    session_.reset();
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
  }

  /// Fingerprint of `sql` under the session's *current* configuration.
  /// Ground truths are taken before sharing is switched on.
  std::string Fingerprint(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? engine::FingerprintBatch(result->batch)
                       : std::string();
  }

  void SetSharedScan(bool enabled, uint64_t morsel_rows = 0) {
    core::SessionUpdate update;
    update.shared_scan = enabled;
    update.morsel_rows = morsel_rows;
    ASSERT_TRUE(session_->UpdateConfig(update).ok());
  }

  /// A registry entry for an unrelated table: importing it bumps
  /// CacheRegistry::version() — the mid-run invalidation that must split
  /// sharing groups without corrupting in-flight queries.
  core::CacheEntry UnrelatedRegistryEntry(int i) {
    core::CacheEntry entry;
    entry.location.database = "db";
    entry.location.table = "unrelated";
    entry.location.column = "c";
    entry.location.path = "$.f" + std::to_string(i);
    entry.cache_table_dir = root_ + "/cache/unrelated";
    entry.cache_field = "f";
    entry.cache_time = i;
    return entry;
  }

  std::string root_;
  catalog::Catalog catalog_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<core::MaxsonSession> session_;
};

/// One query of the matrix test and its ground truth's recipe: rows whose
/// `id` passes `keep`, projecting `id` (when `with_id`) and then each JSON
/// path of `payload` under its alias.
struct OracleQuery {
  std::string sql;
  std::function<bool(int64_t)> keep;
  bool with_id = false;
  std::vector<std::pair<std::string, std::string>> paths;  // alias, path
};

/// Ground truth that shares no code with the scan executor: reads every
/// part file of `table_dir` in split order with a bare CorcReader and
/// extracts each path with one DOM parse (json::GetJsonObject), NULL when
/// absent — get_json_object's contract.
storage::RecordBatch OracleBatch(const std::string& table_dir,
                                 const OracleQuery& q) {
  storage::Schema schema;
  if (q.with_id) schema.AddField("id", storage::TypeKind::kInt64);
  std::vector<json::JsonPath> paths;
  for (const auto& [alias, text] : q.paths) {
    schema.AddField(alias, storage::TypeKind::kString);
    auto path = json::JsonPath::Parse(text);
    EXPECT_TRUE(path.ok()) << text;
    paths.push_back(*path);
  }
  storage::RecordBatch out(schema);
  auto splits = storage::FileSystem::ListSplits(table_dir);
  EXPECT_TRUE(splits.ok()) << splits.status();
  if (!splits.ok()) return out;
  for (const storage::Split& split : *splits) {
    storage::CorcReader reader(split.path);
    EXPECT_TRUE(reader.Open().ok()) << split.path;
    const std::vector<int> columns = {reader.schema().FindField("id"),
                                      reader.schema().FindField("payload")};
    for (size_t s = 0; s < reader.num_stripes(); ++s) {
      auto stripe = reader.ReadStripe(s, columns, std::nullopt, nullptr);
      EXPECT_TRUE(stripe.ok()) << stripe.status();
      if (!stripe.ok()) return out;
      for (size_t r = 0; r < stripe->num_rows(); ++r) {
        const int64_t id = stripe->column(0).GetInt64(r);
        if (!q.keep(id)) continue;
        std::vector<storage::Value> row;
        if (q.with_id) row.push_back(storage::Value::Int64(id));
        for (const json::JsonPath& path : paths) {
          auto value = json::GetJsonObject(stripe->column(1).GetString(r),
                                           path);
          row.push_back(value.ok() ? storage::Value::String(*value)
                                   : storage::Value::Null());
        }
        out.AppendRow(row);
      }
    }
  }
  return out;
}

TEST_F(SharedScanE2ETest, SharingOnAndOffAreByteIdentical) {
  // A second table of 50-row stripes, so morsel_rows = 60 cuts each split
  // into several morsels, whose middle part file holds zero stripes:
  // whole-split morsels of it must read nothing, and stripe morsels must
  // keep it as one empty morsel.
  workload::JsonTableSpec spec;
  spec.database = "db";
  spec.table = "z";
  spec.num_properties = 4;
  spec.avg_json_bytes = 120;
  spec.rows = 300;
  spec.rows_per_file = 150;
  spec.rows_per_group = 50;
  spec.seed = 8;
  auto generated =
      workload::GenerateJsonTable(spec, root_ + "/warehouse", 1, &catalog_);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const std::string z_dir = generated->location;
  const auto part = [&](size_t index) {
    return z_dir + "/" + storage::FileSystem::PartFileName(index);
  };
  // Part files 0 and 1 become 0 and 2 (rewritten as 3 stripes each); the
  // new part file 1 is empty.
  for (const auto& [from, to] : {std::pair<size_t, size_t>{1, 2}, {0, 0},
                                 {1, 1}}) {
    storage::CorcReader reader(part(from));
    ASSERT_TRUE(reader.Open().ok());
    auto rows = reader.ReadAll(nullptr);
    ASSERT_TRUE(rows.ok()) << rows.status();
    storage::CorcWriterOptions options;
    options.rows_per_stripe = 50;
    options.rows_per_group = 25;
    storage::CorcWriter writer(part(to), reader.schema(), options);
    ASSERT_TRUE(writer.Open().ok());
    if (to != 1) {
      ASSERT_TRUE(writer.WriteBatch(*rows).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  for (const auto& [index, stripes] :
       {std::pair<size_t, size_t>{0, 3}, {1, 0}, {2, 3}}) {
    storage::CorcReader check(part(index));
    ASSERT_TRUE(check.Open().ok());
    ASSERT_EQ(check.num_stripes(), stripes) << part(index);
  }

  const std::vector<OracleQuery> queries = {
      {"SELECT id FROM TABLE", [](int64_t) { return true; }, true, {}},
      {"SELECT id, get_json_object(payload, '$.f1') AS f1 FROM TABLE "
       "WHERE id >= 100",
       [](int64_t id) { return id >= 100; },
       true,
       {{"f1", "$.f1"}}},
      {"SELECT get_json_object(payload, '$.f2') AS f2 FROM TABLE "
       "WHERE id < 50",
       [](int64_t id) { return id < 50; },
       false,
       {{"f2", "$.f2"}}},
  };
  const std::vector<std::pair<std::string, std::string>> tables = {
      {"t", root_ + "/warehouse/db/t"}, {"z", z_dir}};

  std::vector<std::string> sqls;
  std::vector<std::string> expected;
  for (const auto& [name, dir] : tables) {
    for (const OracleQuery& q : queries) {
      std::string sql = q.sql;
      sql.replace(sql.find("TABLE"), 5, name);
      sqls.push_back(sql);
      const storage::RecordBatch truth = OracleBatch(dir, q);
      ASSERT_GT(truth.num_rows(), 0u) << sql;
      expected.push_back(engine::FingerprintBatch(truth));
    }
  }

  // Coarse morsels (one per split) and fine ones (several per split of z,
  // to exercise morsel-order reassembly), sequential and fanned.
  for (const bool sharing : {false, true}) {
    for (const uint64_t morsel_rows : {uint64_t{0}, uint64_t{60}}) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        SetSharedScan(sharing, morsel_rows);
        core::SessionUpdate update;
        update.num_threads = threads;
        ASSERT_TRUE(session_->UpdateConfig(update).ok());
        for (size_t i = 0; i < sqls.size(); ++i) {
          EXPECT_EQ(Fingerprint(sqls[i]), expected[i])
              << sqls[i] << " diverged with sharing=" << sharing
              << " morsel_rows=" << morsel_rows << " threads=" << threads;
        }
      }
    }
  }
  // Sequential queries go through the engine's manager when sharing is on.
  const auto stats = session_->stats();
  EXPECT_TRUE(stats.shared_scan_enabled);
  EXPECT_GT(stats.sharedscan_subscribers, 0u);
  EXPECT_GT(stats.sharedscan_parse_passes, 0u);
  SetSharedScan(false);
}

TEST_F(SharedScanE2ETest, ConcurrentServedClientsCoalesceAndStayIdentical) {
  const std::string sql =
      "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
      "WHERE id < 400";
  const std::string expected = Fingerprint(sql);  // sharing still off here

  serve::ServeOptions options;
  // Result caching off so every client truly scans (the point here is the
  // scan-sharing layer below the result cache).
  options.enable_result_cache = false;
  serve::MaxsonServer server(session_.get(), &catalog_, options);
  ASSERT_TRUE(session_->stats().shared_scan_enabled)
      << "server construction should switch the session to shared scans";

  constexpr size_t kClients = 4;
  std::vector<serve::ClientSession> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(server.Connect("tenant" + std::to_string(i)));
  }

  // Whether K clients actually overlap inside the scan is timing-
  // dependent, so coalescing is asserted over a bounded retry loop;
  // byte-identical results are asserted on every attempt.
  bool coalesced_seen = false;
  for (int attempt = 0; attempt < 50 && !coalesced_seen; ++attempt) {
    const auto before = session_->stats();
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        auto outcome = clients[i].Execute(sql);
        if (!outcome.ok() ||
            engine::FingerprintBatch(outcome->result.batch) != expected) {
          ok.store(false);
        }
      });
    }
    while (ready.load() < kClients) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    ASSERT_TRUE(ok.load()) << "a served result diverged from ground truth";

    const auto after = session_->stats();
    EXPECT_EQ(after.sharedscan_subscribers - before.sharedscan_subscribers,
              kClients);
    coalesced_seen = after.sharedscan_coalesced_parses >
                     before.sharedscan_coalesced_parses;
  }
  EXPECT_TRUE(coalesced_seen)
      << "4 concurrent identical queries never shared a parse pass in 50 "
         "attempts";
}

TEST_F(SharedScanE2ETest, MidRunInvalidationKeepsResultsCorrect) {
  const std::string sql =
      "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
      "WHERE id < 300";
  const std::string expected = Fingerprint(sql);
  SetSharedScan(true);

  // Registry churn concurrent with querying: version bumps move new scans
  // to fresh sharing groups; in-flight ones finish against their stamp.
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    int i = 0;
    while (!stop.load()) {
      session_->ImportCacheEntries({UnrelatedRegistryEntry(i++ % 7)});
      std::this_thread::yield();
    }
  });

  constexpr size_t kWorkers = 3;
  constexpr int kIterations = 12;
  std::atomic<bool> ok{true};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        auto result = session_->Execute(sql);
        if (!result.ok() ||
            engine::FingerprintBatch(result->batch) != expected) {
          ok.store(false);
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true);
  invalidator.join();
  EXPECT_TRUE(ok.load());
  SetSharedScan(false);
}

// The TSan target: many threads, mixed queries, registry churn, knob
// flips. Run standalone under ThreadSanitizer by tools/ci.sh.
TEST_F(SharedScanE2ETest, ConcurrentMixedQueriesStress) {
  const std::vector<std::string> queries = {
      "SELECT id FROM t WHERE id < 200",
      "SELECT id, get_json_object(payload, '$.f1') AS f1 FROM t "
      "WHERE id >= 150",
      "SELECT get_json_object(payload, '$.f2') AS f2 FROM t",
  };
  std::vector<std::string> expected;
  for (const std::string& sql : queries) expected.push_back(Fingerprint(sql));
  SetSharedScan(true);

  constexpr size_t kThreads = 6;
  constexpr int kIterations = 8;
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t q = (t + i) % queries.size();
        auto result = session_->Execute(queries[q]);
        if (!result.ok() ||
            engine::FingerprintBatch(result->batch) != expected[q]) {
          ok.store(false);
          return;
        }
        if (i % 4 == 3) {
          session_->ImportCacheEntries(
              {UnrelatedRegistryEntry(static_cast<int>(t))});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_GT(session_->stats().sharedscan_parse_passes, 0u);
  SetSharedScan(false);
}

}  // namespace
}  // namespace maxson
