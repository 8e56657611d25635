// Differential tests of the on-demand parsing tier (src/json/
// ondemand_parser) against the DOM baseline (json::GetJsonObject), in the
// style of simd_kernel_test: every ISA level the host supports runs the
// same corpus — workload-generator documents plus adversarial inputs
// (deep nesting, escapes, truncated docs, duplicate keys, NaN/huge
// numbers, garbage inside skipped subtrees) — and must produce
// byte-identical values or identical errors. Also here: the validator
// fuzz differential (json::ValidateJson accepts iff json::ParseJson does),
// the one-record memo, and an engine-level differential that runs the
// Table II queries and a table of malformed rows with the tier on and off.

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/random.h"
#include "engine/engine.h"
#include "engine/fingerprint.h"
#include "gtest/gtest.h"
#include "json/dom_parser.h"
#include "json/json_path.h"
#include "json/ondemand_parser.h"
#include "simd/isa.h"
#include "simd/kernels.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"
#include "workload/query_templates.h"

namespace maxson {
namespace {

using json::JsonPath;
using json::OndemandParser;
using simd::Isa;

/// Forces a dispatch level for one scope and restores the previous one.
class IsaGuard {
 public:
  explicit IsaGuard(Isa level) : previous_(simd::ActiveIsa()) {
    EXPECT_EQ(simd::ForceIsa(level), level)
        << "host cannot run " << simd::IsaName(level);
  }
  ~IsaGuard() { simd::ForceIsa(previous_); }

 private:
  Isa previous_;
};

/// Every level the host supports, scalar first.
std::vector<Isa> SupportedLevels() {
  std::vector<Isa> levels = {Isa::kScalar};
  if (simd::BestSupportedIsa() >= Isa::kSse2) levels.push_back(Isa::kSse2);
  if (simd::BestSupportedIsa() >= Isa::kAvx2) levels.push_back(Isa::kAvx2);
  return levels;
}

JsonPath MustParsePath(const std::string& text) {
  Result<JsonPath> parsed = JsonPath::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? *parsed : JsonPath();
}

/// The oracle: the two tiers must be indistinguishable — identical bytes
/// on success, and on error the same status code and message (the
/// on-demand tier's errors come from the DOM grammar itself).
void ExpectStrict(OndemandParser* parser, const std::string& doc,
                  const JsonPath& path) {
  const Result<std::string> dom = json::GetJsonObject(doc, path);
  const Result<std::string> ond = parser->Extract(doc, path);
  if (dom.ok()) {
    ASSERT_TRUE(ond.ok()) << "on-demand error '" << ond.status().message()
                          << "' where DOM succeeded, doc=" << doc
                          << " path=" << path.ToString();
    EXPECT_EQ(*ond, *dom) << "doc=" << doc << " path=" << path.ToString();
    return;
  }
  ASSERT_FALSE(ond.ok()) << "on-demand value '" << *ond
                         << "' where DOM errored '" << dom.status().message()
                         << "', doc=" << doc << " path=" << path.ToString();
  EXPECT_EQ(ond.status().code(), dom.status().code())
      << "doc=" << doc << " path=" << path.ToString();
  EXPECT_EQ(ond.status().message(), dom.status().message())
      << "doc=" << doc << " path=" << path.ToString();
}

/// Workload-generator documents across the schema shapes the generator
/// produces: flat and nested, stable and variable, small and large.
std::vector<std::string> WorkloadDocuments(uint64_t rows_per_shape) {
  struct SpecCase {
    int props;
    int nesting;
    double variability;
    int bytes;
  };
  const std::vector<SpecCase> cases = {
      {5, 1, 0.0, 200},  {17, 1, 0.0, 500},  {17, 3, 0.0, 500},
      {17, 2, 0.5, 500}, {40, 3, 0.25, 2000},
  };
  std::vector<std::string> docs;
  for (const SpecCase& c : cases) {
    workload::JsonTableSpec spec;
    spec.table = "t";
    spec.num_properties = c.props;
    spec.nesting_level = c.nesting;
    spec.schema_variability = c.variability;
    spec.avg_json_bytes = c.bytes;
    spec.seed = 77;
    for (uint64_t row = 0; row < rows_per_shape; ++row) {
      docs.push_back(workload::GenerateJsonRecord(spec, row));
    }
  }
  return docs;
}

TEST(OndemandParserTest, WorkloadDocumentsMatchDomAtEveryLevel) {
  const std::vector<std::string> path_texts = {
      "$.f0",         "$.f1",      "$.f2",       "$.f3",
      "$.f4",         "$.f16",     "$.blob",     "$.missing",
      "$.f3.leaf",    "$.f3.n0.leaf", "$.f3.n0.n1.leaf", "$.f0[0]",
      "$.f3.missing", "$",
  };
  std::vector<JsonPath> paths;
  paths.reserve(path_texts.size());
  for (const std::string& t : path_texts) paths.push_back(MustParsePath(t));
  const std::vector<std::string> docs = WorkloadDocuments(40);

  for (Isa level : SupportedLevels()) {
    IsaGuard guard(level);
    OndemandParser parser;
    for (const std::string& doc : docs) {
      for (const JsonPath& path : paths) {
        ExpectStrict(&parser, doc, path);
      }
    }
  }
}

TEST(OndemandParserTest, AdversarialStructuralInputsMatchDomAtEveryLevel) {
  struct Case {
    std::string doc;
    std::string path;
  };
  std::vector<Case> cases = {
      // Duplicate keys: last occurrence wins, at any type.
      {R"({"a":1,"a":2})", "$.a"},
      {R"({"a":{"x":1},"a":[7,8]})", "$.a[1]"},
      {R"({"a":[1],"a":{"x":"y"},"b":3})", "$.a.x"},
      {R"({"a":1,"b":{"a":9},"a":3})", "$.a"},
      {R"({"a":"first","b":2,"a":"last"})", "$.a"},
      // Escapes: in keys, in values, escaped quotes and backslashes, and
      // \uXXXX including a surrogate pair.
      {R"({"k\"ey":1,"other":2})", "$.other"},
      {R"({"a":"va\"l,ue}"})", "$.a"},
      {R"({"a\\":1,"b":2})", "$.b"},
      {R"({"a":"\\","b":"x"})", "$.b"},
      {R"({"a":"A😀"})", "$.a"},
      {R"({"b":5})", "$.b"},
      {R"({"a":"end\\"})", "$.a"},
      {"{\"a\":\"colon : brace } inside\",\"b\":[1,2]}", "$.b[0]"},
      // Numbers: huge magnitudes, int64 overflow into double, exponents.
      {R"({"n":99999999999999999999999})", "$.n"},
      {R"({"n":-9223372036854775808})", "$.n"},
      {R"({"n":9223372036854775807})", "$.n"},
      {R"({"n":1e308,"m":2})", "$.n"},
      {R"({"n":1e999})", "$.n"},
      {R"({"n":0.5e-3})", "$.n"},
      {R"({"n":NaN})", "$.n"},
      {R"({"n":Infinity})", "$.n"},
      // Malformed structure: unbalanced, mismatched, unterminated, empty,
      // bare separators.
      {R"({"a":1)", "$.a"},
      {R"({"a":1]})", "$.a"},
      {R"([1,2})", "$[0]"},
      {R"({"a":"unterminated)", "$.a"},
      {R"({)", "$.a"},
      {R"(})", "$.a"},
      {R"({"a":1}})", "$.a"},
      {R"({"a":1}{"b":2})", "$.a"},
      {R"({"a":1} x)", "$.a"},
      {R"({:1})", "$.a"},
      {R"({"a":})", "$.a"},
      {R"([:])", "$[0]"},
      {"", "$.a"},
      {"   ", "$.a"},
      // Empty containers, whitespace, arrays of arrays.
      {R"({})", "$.a"},
      {R"([])", "$[0]"},
      {"[  ]", "$[0]"},
      {"{ \"a\" :\n[ [1, 2] , [3] ] }", "$.a[1][0]"},
      {R"([[[1]]])", "$[0][0][0]"},
      {R"([1,2,3])", "$[3]"},
      {R"({"a":[{"b":1},{"b":2}]})", "$.a[1].b"},
      // Scalar roots: no tape; only `$` resolves.
      {R"("hi")", "$.a"},
      {R"(42)", "$"},
      {R"(null)", "$.a"},
      {"  true  ", "$"},
      {R"("unterminated)", "$"},
      // Type mismatches along the path.
      {R"({"a":1})", "$.a.b"},
      {R"({"a":[1]})", "$.a.b"},
      {R"({"a":{"b":1}})", "$.a[0]"},
      {R"([1,2])", "$.a"},
  };
  // Deep nesting: past the DOM depth cap (256, dom_parser.cc) both must
  // reject; deep-but-legal must agree.
  {
    std::string deep_ok = "{\"a\":";
    std::string path_ok = "$.a";
    for (int d = 0; d < 200; ++d) {
      deep_ok += "[";
      path_ok += "[0]";
    }
    deep_ok += "7";
    for (int d = 0; d < 200; ++d) deep_ok += "]";
    deep_ok += "}";
    cases.push_back({deep_ok, path_ok});
    std::string too_deep;
    for (int d = 0; d < 300; ++d) too_deep += "[";
    too_deep += "1";
    for (int d = 0; d < 300; ++d) too_deep += "]";
    cases.push_back({too_deep, "$[0]"});
  }
  // Truncations: every prefix of a representative document must error (or
  // succeed) identically.
  const std::string base = R"({"a":[1,{"b":"x\"y"}],"c":{"d":null}})";
  for (size_t len = 0; len <= base.size(); ++len) {
    cases.push_back({base.substr(0, len), "$.a[1].b"});
    cases.push_back({base.substr(0, len), "$.c.d"});
  }

  for (Isa level : SupportedLevels()) {
    IsaGuard guard(level);
    OndemandParser parser;
    for (const Case& c : cases) {
      ExpectStrict(&parser, c.doc, MustParsePath(c.path));
    }
  }
}

TEST(OndemandParserTest, RandomFuzzMatchesDomAtEveryLevel) {
  // Random structural soup: token garbage lands anywhere, including in
  // subtrees the query skips, and the tier must still answer exactly as
  // the DOM does.
  static const char kAlphabet[] = "\"\\{}:,ab \t\n[]0.-e";
  Rng rng{190};
  std::vector<std::string> docs;
  for (int trial = 0; trial < 400; ++trial) {
    std::string s;
    const size_t len = 1 + rng.NextBounded(120);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
    }
    docs.push_back(s);
  }
  const std::vector<std::string> path_texts = {"$.a", "$.ab", "$[0]",
                                               "$[2]", "$.a[1].b", "$"};
  for (Isa level : SupportedLevels()) {
    IsaGuard guard(level);
    OndemandParser parser;
    for (const std::string& doc : docs) {
      for (const std::string& t : path_texts) {
        ExpectStrict(&parser, doc, MustParsePath(t));
      }
    }
  }
}

TEST(OndemandParserTest, ValidatorAgreesWithDomOnMutatedWorkloadDocuments) {
  // Byte mutations of real workload documents: bit flips, structural and
  // escape characters written over or inserted, deletions, truncations.
  // ValidateJson must accept exactly when ParseJson succeeds and reject
  // with ParseJson's own error; the tier then answers like the DOM.
  static const char kInsert[] = "\"\\{}[]:,tfn0-.eEu \x01\x7f";
  const std::vector<std::string> base = WorkloadDocuments(4);
  Rng rng{4242};
  std::vector<std::string> docs;
  for (const std::string& doc : base) {
    for (int m = 0; m < 60; ++m) {
      std::string d = doc;
      const size_t at = rng.NextBounded(d.size());
      switch (rng.NextBounded(5)) {
        case 0:
          d[at] = static_cast<char>(d[at] ^ (1 << rng.NextBounded(8)));
          break;
        case 1:
          d[at] = kInsert[rng.NextBounded(sizeof(kInsert) - 1)];
          break;
        case 2:
          d.erase(at, 1 + rng.NextBounded(3));
          break;
        case 3:
          d.insert(at, 1, kInsert[rng.NextBounded(sizeof(kInsert) - 1)]);
          break;
        default:
          d.resize(at);
          break;
      }
      docs.push_back(std::move(d));
    }
  }
  const std::vector<JsonPath> paths = {MustParsePath("$.f0"),
                                       MustParsePath("$.f3.n0.leaf"),
                                       MustParsePath("$.f9"),
                                       MustParsePath("$.missing")};
  for (Isa level : SupportedLevels()) {
    IsaGuard guard(level);
    OndemandParser parser;
    size_t accepted = 0;
    for (const std::string& doc : docs) {
      const Result<json::JsonValue> dom = json::ParseJson(doc);
      const Status valid = json::ValidateJson(doc);
      ASSERT_EQ(valid.ok(), dom.ok()) << simd::IsaName(level) << " " << doc;
      if (!dom.ok()) {
        EXPECT_EQ(valid.message(), dom.status().message()) << doc;
      }
      accepted += valid.ok() ? 1 : 0;
      for (const JsonPath& path : paths) ExpectStrict(&parser, doc, path);
    }
    // The corpus exercises both sides of the contract.
    EXPECT_GT(accepted, docs.size() / 10);
    EXPECT_LT(accepted, docs.size() - docs.size() / 10);
  }
}

TEST(OndemandParserTest, SkippedSubtreeGarbageFailsLikeDom) {
  // Garbage inside a subtree the cursor never visits: the validator runs
  // the DOM grammar over every byte, so these records fail exactly as the
  // DOM fails them, whichever path is asked for.
  OndemandParser parser;
  const struct {
    std::string doc;
    std::string path;
  } cases[] = {
      {R"({"junk":truu,"b":1})", "$.b"},
      {R"({"junk":[1 2 3],"b":"x"})", "$.b"},
      {R"([nope,7])", "$[1]"},
      {R"({"a":1,})", "$.a"},
  };
  for (const auto& c : cases) {
    for (const std::string& path : {c.path, std::string("$.junk")}) {
      const Result<std::string> dom =
          json::GetJsonObject(c.doc, MustParsePath(path));
      ASSERT_FALSE(dom.ok()) << c.doc;
      EXPECT_EQ(dom.status().code(), StatusCode::kParseError) << c.doc;
      ExpectStrict(&parser, c.doc, MustParsePath(path));
    }
  }
}

TEST(OndemandParserTest, TelemetryCountsAndAbsorbs) {
  OndemandParser a;
  const JsonPath path = MustParsePath("$.a");
  const std::string doc =
      R"({"a":1,"big":"0123456789012345678901234567890123456789"})";
  ASSERT_TRUE(a.Extract(doc, path).ok());
  ASSERT_TRUE(a.Extract(doc, path).ok());
  // The second call hits the memo: one tape, skipped bytes for both calls.
  EXPECT_EQ(a.records_indexed(), 1u);
  const uint64_t skipped = a.skipped_bytes();
  EXPECT_GT(skipped, 0u);
  // Scalar roots get no tape and are not counted as indexed.
  EXPECT_FALSE(a.Extract("42", path).ok());
  EXPECT_EQ(a.records_indexed(), 1u);
  OndemandParser b;
  ASSERT_TRUE(b.Extract(doc, path).ok());
  b.AbsorbTelemetry(a);
  EXPECT_EQ(b.records_indexed(), 2u);
  EXPECT_EQ(b.skipped_bytes(), skipped + skipped / 2);
}

TEST(OndemandParserTest, MemoSeesBufferMutatedInPlace) {
  // The memo is keyed on bytes, not on the buffer's address: rewriting a
  // buffer between calls (as a reader reusing one buffer would) must
  // rebuild the tape.
  OndemandParser parser;
  const JsonPath a = MustParsePath("$.a");
  std::string buffer = R"({"a":1,"b":[true,false]})";
  const char* const address = buffer.data();
  ASSERT_EQ(*parser.Extract(buffer, a), "1");
  buffer[5] = '7';
  ASSERT_EQ(buffer.data(), address);
  ExpectStrict(&parser, buffer, a);
  EXPECT_EQ(*parser.Extract(buffer, a), "7");
  buffer[5] = 'x';  // now malformed, same address and length
  ExpectStrict(&parser, buffer, a);
  buffer[5] = '9';
  EXPECT_EQ(*parser.Extract(buffer, a), "9");
  EXPECT_EQ(parser.records_indexed(), 3u);
}

TEST(OndemandParserTest, MemoAlternatingRecordsMatchDom) {
  const std::vector<std::string> docs = WorkloadDocuments(2);
  const std::vector<JsonPath> paths = {MustParsePath("$.f0"),
                                       MustParsePath("$.f3.n0.leaf"),
                                       MustParsePath("$.nope")};
  for (Isa level : SupportedLevels()) {
    IsaGuard guard(level);
    OndemandParser parser;
    for (size_t i = 0; i + 1 < docs.size(); ++i) {
      for (const JsonPath& path : paths) {
        ExpectStrict(&parser, docs[i], path);
        ExpectStrict(&parser, docs[i + 1], path);
      }
    }
  }
}

TEST(OndemandParserTest, MemoMalformedRecordThenValidRecord) {
  OndemandParser parser;
  const JsonPath b = MustParsePath("$.b");
  const std::string bad = R"({"junk":[1 2],"b":2})";
  const std::string good = R"({"junk":[1,2],"b":2})";
  ExpectStrict(&parser, bad, b);
  ExpectStrict(&parser, bad, b);  // memo hit on the cached error
  EXPECT_EQ(parser.records_indexed(), 0u);
  ExpectStrict(&parser, good, b);
  EXPECT_EQ(*parser.Extract(good, b), "2");
  EXPECT_EQ(parser.records_indexed(), 1u);
  ExpectStrict(&parser, bad, b);
}

TEST(OndemandParserTest, KExtractCallsOnOneRecordShareOneTape) {
  OndemandParser parser;
  const std::string doc =
      R"({"a":1,"b":{"c":"two"},"d":[10,20,30],"pad":"xxxxxxxxxxxxxxxx"})";
  const std::string other = R"({"a":"other"})";
  const std::vector<JsonPath> paths = {
      MustParsePath("$.a"), MustParsePath("$.b.c"), MustParsePath("$.d[2]"),
      MustParsePath("$.nope")};
  // A row's k calls: one tape, every value (and the missing path's
  // message) as DOM's, and the untouched padding counts as skipped.
  for (const JsonPath& path : paths) ExpectStrict(&parser, doc, path);
  EXPECT_EQ(parser.records_indexed(), 1u);
  EXPECT_GT(parser.skipped_bytes(), 0u);
  // Another record in between costs one tape, and coming back one more
  // for all k calls.
  ExpectStrict(&parser, other, paths[0]);
  for (const JsonPath& path : paths) ExpectStrict(&parser, doc, path);
  EXPECT_EQ(parser.records_indexed(), 3u);
  // A record the validator rejects fails every call as DOM does and
  // builds no tape.
  for (const JsonPath& path : paths) {
    ExpectStrict(&parser, R"({"a":1)", path);
  }
  EXPECT_EQ(parser.records_indexed(), 3u);
  // A moved parser keeps a usable memo, also for a short record, whose
  // bytes live inside the string object and so move with it.
  OndemandParser fresh;
  ExpectStrict(&fresh, other, paths[0]);
  OndemandParser moved = std::move(fresh);
  ExpectStrict(&moved, other, MustParsePath("$"));
  ExpectStrict(&moved, other, paths[0]);
}

// ---------- Engine level: the tier on and off give the same rows ----------

class OndemandEngineDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    warehouse_ = (std::filesystem::temp_directory_path() /
                  ("maxson_ondemand_engine_" + std::to_string(::getpid())))
                     .string();
    ASSERT_TRUE(storage::FileSystem::RemoveAll(warehouse_).ok());
    workload::BenchmarkSuiteOptions options;
    options.rows_per_file = 100;
    options.rows_per_group = 40;
    queries_ = workload::MakeTableIIQueries(options);
    // The suite floors every table at 2000 rows; 200 keep this sweep of
    // nine configurations fast under the sanitizers. Q2's and Q9's JSON
    // predicates compare against a share of the row count, so rescale
    // their thresholds with it.
    constexpr uint64_t kRows = 200;
    for (workload::BenchmarkQuery& q : queries_) {
      for (const auto& [num, den] : {std::pair{3, 4}, std::pair{9, 10}}) {
        const std::string from =
            "> " + std::to_string(q.table_spec.rows * num / den);
        const size_t at = q.sql.find(from);
        if (at != std::string::npos) {
          q.sql.replace(at, from.size(),
                        "> " + std::to_string(kRows * num / den));
        }
      }
      q.table_spec.rows = kRows;
    }
    ASSERT_TRUE(workload::GenerateBenchmarkTables(queries_, warehouse_,
                                                  options, &catalog_)
                    .ok());
    MakeMalformedTable();
  }
  void TearDown() override {
    ASSERT_TRUE(storage::FileSystem::RemoveAll(warehouse_).ok());
  }

  /// bad.rows(id, payload): well-formed records interleaved with records
  /// the DOM rejects (garbage in skipped subtrees, bad escapes,
  /// truncation, trailing bytes), plus scalar roots and NULL.
  void MakeMalformedTable() {
    const std::vector<std::string> payloads = {
        R"({"a":1,"b":{"c":"x"},"d":[1,2]})",
        R"({"junk":truu,"b":{"c":"y"}})",
        R"({"a":2,"junk":[1 2 3],"b":{"c":"x"}})",
        R"({"a":[nope,7],"b":{"c":"z"}})",
        R"({"a":1,"b":{"c":"x"},})",
        R"({"a":"\q","b":{"c":"x"}})",
        R"({"a":"\u12G4","b":{"c":"x"}})",
        R"({"a":"\ud800","b":{"c":"x"}})",
        R"({"a":"😀","b":{"c":"x"}})",
        R"({"a":3,"b":{"c":"x")",
        R"({"a":3,"b":{"c":"x"}} trailing)",
        R"({"a":01,"b":{"c":"x"}})",
        R"({"a":1.,"b":{"c":"x"}})",
        R"({"a":4,"a":5,"b":{"c":"w"}})",
        R"(42)",
        R"("just a string")",
        "",
        R"({"a":6,"b":{"c":"x"},"d":[3,4]})",
    };
    storage::Schema schema;
    schema.AddField("id", storage::TypeKind::kInt64);
    schema.AddField("payload", storage::TypeKind::kString);
    const std::string dir = warehouse_ + "/bad/rows";
    ASSERT_TRUE(storage::FileSystem::MakeDirs(dir).ok());
    storage::CorcWriterOptions writer_options;
    writer_options.rows_per_group = 8;
    storage::CorcWriter writer(
        dir + "/" + storage::FileSystem::PartFileName(0), schema,
        writer_options);
    ASSERT_TRUE(writer.Open().ok());
    int64_t id = 0;
    for (int copy = 0; copy < 3; ++copy) {
      for (const std::string& payload : payloads) {
        ASSERT_TRUE(writer
                        .AppendRow({storage::Value::Int64(id++),
                                    storage::Value::String(payload)})
                        .ok());
      }
      ASSERT_TRUE(
          writer.AppendRow({storage::Value::Int64(id++), storage::Value::Null()})
              .ok());
    }
    ASSERT_TRUE(writer.Close().ok());
    ASSERT_TRUE(catalog_.CreateDatabase("bad").ok());
    catalog::TableInfo info;
    info.database = "bad";
    info.name = "rows";
    info.schema = schema;
    info.location = dir;
    ASSERT_TRUE(catalog_.CreateTable(info).ok());
  }

  /// Fingerprint of every query's result under one configuration.
  std::vector<std::string> RunAll(const std::vector<std::string>& sqls,
                                  bool ondemand, size_t threads) {
    engine::EngineConfig config;
    config.enable_ondemand = ondemand;
    config.num_threads = threads;
    engine::QueryEngine engine(&catalog_, config);
    std::vector<std::string> prints;
    for (const std::string& sql : sqls) {
      auto result = engine.Execute(sql);
      EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
      if (!result.ok()) {
        prints.push_back(result.status().ToString());
        continue;
      }
      EXPECT_GT(result->batch.num_rows(), 0u) << sql;
      prints.push_back(engine::FingerprintBatch(result->batch));
    }
    return prints;
  }

  std::string warehouse_;
  catalog::Catalog catalog_;
  std::vector<workload::BenchmarkQuery> queries_;
};

TEST_F(OndemandEngineDifferentialTest, SameRowsWithTierOnAndOff) {
  std::vector<std::string> sqls;
  for (const workload::BenchmarkQuery& q : queries_) sqls.push_back(q.sql);
  sqls.push_back(
      "SELECT id, get_json_object(payload, '$.a') AS a, "
      "get_json_object(payload, '$.b.c') AS c, "
      "get_json_object(payload, '$.d[1]') AS d, "
      "get_json_object(payload, '$') AS doc FROM bad.rows");
  sqls.push_back(
      "SELECT id, get_json_object(payload, '$.a') FROM bad.rows "
      "WHERE get_json_object(payload, '$.b.c') = 'x'");
  sqls.push_back(
      "SELECT get_json_object(payload, '$.b.c') AS c, COUNT(*) AS n, "
      "SUM(to_double(get_json_object(payload, '$.a'))) AS total "
      "FROM bad.rows GROUP BY c ORDER BY c");

  std::vector<Isa> levels = {Isa::kScalar};
  if (simd::BestSupportedIsa() >= Isa::kAvx2) levels.push_back(Isa::kAvx2);
  const std::vector<std::string> reference =
      RunAll(sqls, /*ondemand=*/false, /*threads=*/1);
  for (Isa level : levels) {
    IsaGuard guard(level);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (bool ondemand : {false, true}) {
        const std::vector<std::string> got = RunAll(sqls, ondemand, threads);
        ASSERT_EQ(got.size(), reference.size());
        for (size_t i = 0; i < sqls.size(); ++i) {
          EXPECT_EQ(got[i], reference[i])
              << simd::IsaName(level) << " threads=" << threads
              << " ondemand=" << ondemand << ": " << sqls[i];
        }
      }
    }
  }
}

}  // namespace
}  // namespace maxson
