#include <filesystem>

#include "catalog/catalog.h"
#include "common/random.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "json/raw_filter.h"
#include "storage/file_system.h"
#include "workload/data_generator.h"

namespace maxson::json {
namespace {

TEST(RawFilterTest, FindsNeedleAnywhere) {
  RawFilter filter("cat3");
  EXPECT_TRUE(filter.MightMatch(R"({"f1":"cat3"})"));
  EXPECT_TRUE(filter.MightMatch("cat3"));
  EXPECT_TRUE(filter.MightMatch("xxcat3"));
  EXPECT_TRUE(filter.MightMatch("cat3xx"));
  EXPECT_FALSE(filter.MightMatch(R"({"f1":"cat4"})"));
  EXPECT_FALSE(filter.MightMatch(""));
  EXPECT_FALSE(filter.MightMatch("ca"));
  EXPECT_FALSE(filter.MightMatch("cat"));
  // Near misses that stress the first/last-byte prefilter.
  EXPECT_FALSE(filter.MightMatch("cat2cat1cat0ca t3"));
  EXPECT_TRUE(filter.MightMatch("cat2cat1cat3cat0"));
}

TEST(RawFilterTest, RepeatedCharacterNeedles) {
  RawFilter filter("aaa");
  EXPECT_TRUE(filter.MightMatch("baaab"));
  EXPECT_TRUE(filter.MightMatch("aaa"));
  EXPECT_FALSE(filter.MightMatch("aabaab"));
}

TEST(RawFilterTest, SingleByteNeedle) {
  // m == 1 makes the SIMD first/last-byte prefilter degenerate (first and
  // last broadcast the same byte); the scan must still find every position.
  RawFilter filter("q");
  EXPECT_TRUE(filter.MightMatch("q"));
  EXPECT_TRUE(filter.MightMatch("xq"));
  EXPECT_TRUE(filter.MightMatch(std::string(100, 'x') + "q"));
  EXPECT_TRUE(filter.MightMatch("q" + std::string(100, 'x')));
  EXPECT_FALSE(filter.MightMatch(""));
  EXPECT_FALSE(filter.MightMatch(std::string(200, 'x')));
}

TEST(RawFilterTest, NeedleLongerThanRecord) {
  RawFilter filter("abcdefghijklmnopqrstuvwxyz0123456789");
  EXPECT_FALSE(filter.MightMatch(""));
  EXPECT_FALSE(filter.MightMatch("abc"));
  EXPECT_FALSE(filter.MightMatch("abcdefghijklmnopqrstuvwxyz012345678"));
  EXPECT_TRUE(filter.MightMatch("abcdefghijklmnopqrstuvwxyz0123456789"));
  EXPECT_TRUE(filter.MightMatch("xx abcdefghijklmnopqrstuvwxyz0123456789 yy"));
}

TEST(RawFilterTest, AgreesWithStdFindOnRandomInputs) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::string needle;
    const size_t nl = 1 + rng.NextBounded(6);
    for (size_t i = 0; i < nl; ++i) {
      needle.push_back(static_cast<char>('a' + rng.NextBounded(4)));
    }
    std::string haystack;
    const size_t hl = rng.NextBounded(60);
    for (size_t i = 0; i < hl; ++i) {
      haystack.push_back(static_cast<char>('a' + rng.NextBounded(4)));
    }
    RawFilter filter(needle);
    EXPECT_EQ(filter.MightMatch(haystack),
              haystack.find(needle) != std::string::npos)
        << "needle=" << needle << " haystack=" << haystack;
  }
}

TEST(RawFilterTest, FilterableLiteralGate) {
  EXPECT_TRUE(IsRawFilterableLiteral("cat3"));
  EXPECT_TRUE(IsRawFilterableLiteral("node-12_x"));
  EXPECT_FALSE(IsRawFilterableLiteral("ab"));        // too short
  EXPECT_FALSE(IsRawFilterableLiteral("a\"b"));      // escapable
  EXPECT_FALSE(IsRawFilterableLiteral("tab\there")); // escapable
  EXPECT_FALSE(IsRawFilterableLiteral("emoji😀"));   // non-ASCII
}

class RawFilterEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("maxson_rawfilter_" + std::to_string(::getpid())))
               .string();
    ASSERT_TRUE(storage::FileSystem::RemoveAll(dir_).ok());
    workload::JsonTableSpec spec;
    spec.database = "db";
    spec.table = "t";
    spec.num_properties = 12;
    spec.rows = 2000;
    spec.rows_per_file = 1000;
    auto table = workload::GenerateJsonTable(spec, dir_, 3, &catalog_);
    ASSERT_TRUE(table.ok()) << table.status();
  }
  void TearDown() override {
    ASSERT_TRUE(storage::FileSystem::RemoveAll(dir_).ok());
  }
  std::string dir_;
  catalog::Catalog catalog_;
};

TEST_F(RawFilterEngineTest, ResultsIdenticalWithAndWithoutPrefilter) {
  engine::EngineConfig plain;
  plain.default_database = "db";
  engine::EngineConfig filtered = plain;
  filtered.enable_raw_filter = true;
  engine::QueryEngine off(&catalog_, plain);
  engine::QueryEngine on(&catalog_, filtered);

  const char* queries[] = {
      "SELECT id FROM db.t WHERE get_json_object(payload, '$.f1') = 'cat3'",
      "SELECT id FROM db.t WHERE get_json_object(payload, '$.f1') = 'cat3' "
      "AND id < 500",
      "SELECT COUNT(*) FROM db.t WHERE "
      "get_json_object(payload, '$.f1') = 'absent_value'",
      // Over an int column: the prefilter only reads string columns.
      "SELECT id FROM db.t WHERE get_json_object(id, '$') = '1234'",
  };
  for (const char* sql : queries) {
    auto a = off.Execute(sql);
    auto b = on.Execute(sql);
    ASSERT_TRUE(a.ok()) << sql;
    ASSERT_TRUE(b.ok()) << sql;
    ASSERT_EQ(a->batch.num_rows(), b->batch.num_rows()) << sql;
    for (size_t r = 0; r < a->batch.num_rows(); ++r) {
      EXPECT_EQ(a->batch.column(0).GetValue(r).ToString(),
                b->batch.column(0).GetValue(r).ToString());
    }
  }
}

TEST_F(RawFilterEngineTest, PrefilterSkipsParsingForNonMatches) {
  engine::EngineConfig config;
  config.default_database = "db";
  config.enable_raw_filter = true;
  engine::QueryEngine engine(&catalog_, config);
  auto result = engine.Execute(
      "SELECT id FROM db.t WHERE get_json_object(payload, '$.f1') = 'cat3'");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->batch.num_rows(), 200u);  // 10% of 2000
  // 90% of rows never reached the parser.
  EXPECT_GE(result->metrics.raw_filtered_rows, 1700u);
  EXPECT_LE(result->metrics.parse.records_parsed, 2000u - 1700u + 200u);
}

TEST_F(RawFilterEngineTest, NoPrefilterForUnsafeLiterals) {
  engine::EngineConfig config;
  config.default_database = "db";
  config.enable_raw_filter = true;
  engine::QueryEngine engine(&catalog_, config);
  // Short literal: gate rejects, no rows prefiltered, results still right.
  auto result = engine.Execute(
      "SELECT COUNT(*) FROM db.t WHERE "
      "get_json_object(payload, '$.f1') = 'xy'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.raw_filtered_rows, 0u);
}

}  // namespace
}  // namespace maxson::json
