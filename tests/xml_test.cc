#include <filesystem>

#include "catalog/catalog.h"
#include "core/maxson.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"
#include "xml/xml_parser.h"
#include "xml/xml_path.h"
#include "xml/xml_value.h"

namespace maxson::xml {
namespace {

TEST(XmlParserTest, ParsesElementsAttributesText) {
  auto doc = ParseXml(
      R"(<order id="42" priority='high'><item sku="a1">Apples</item><qty>3</qty></order>)");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const XmlElement& root = **doc;
  EXPECT_EQ(root.tag(), "order");
  ASSERT_NE(root.FindAttribute("id"), nullptr);
  EXPECT_EQ(*root.FindAttribute("id"), "42");
  EXPECT_EQ(*root.FindAttribute("priority"), "high");
  ASSERT_NE(root.FindChild("item"), nullptr);
  EXPECT_EQ(root.FindChild("item")->text(), "Apples");
  EXPECT_EQ(root.FindChild("qty")->text(), "3");
  EXPECT_EQ(root.FindAttribute("missing"), nullptr);
  EXPECT_EQ(root.FindChild("missing"), nullptr);
}

TEST(XmlParserTest, HandlesDeclarationCommentsCdataEntities) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?><!-- prelude -->"
      "<r><a>&lt;tag&gt; &amp; &quot;x&quot; &#65;</a>"
      "<b><![CDATA[raw <unparsed> & data]]></b></r>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->FindChild("a")->text(), "<tag> & \"x\" A");
  EXPECT_EQ((*doc)->FindChild("b")->text(), "raw <unparsed> & data");
}

TEST(XmlParserTest, SelfClosingAndNested) {
  auto doc = ParseXml("<a><b/><c><d x='1'/></c><b>two</b></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->FindChild("b", 0)->text(), "");
  EXPECT_EQ((*doc)->FindChild("b", 1)->text(), "two");
  EXPECT_EQ(*(*doc)->FindChild("c")->FindChild("d")->FindAttribute("x"), "1");
}

TEST(XmlParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a></b>").ok());
  EXPECT_FALSE(ParseXml("<a attr></a>").ok());
  EXPECT_FALSE(ParseXml("<a x=unquoted></a>").ok());
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>").ok());
  EXPECT_FALSE(ParseXml("<a></a><b></b>").ok());
}

TEST(XmlParserTest, WriteParseRoundTrip) {
  const char* text =
      R"(<log level="warn"><msg>disk &lt;90%&gt; full</msg><code>17</code></log>)";
  auto doc = ParseXml(text);
  ASSERT_TRUE(doc.ok());
  auto again = ParseXml(WriteXml(**doc));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again)->FindChild("msg")->text(), "disk <90%> full");
  EXPECT_EQ(*(*again)->FindAttribute("level"), "warn");
}

TEST(XmlPathTest, ParseAndToString) {
  auto path = XmlPath::Parse("/order/items/item[3]/@sku");
  ASSERT_TRUE(path.ok()) << path.status();
  ASSERT_EQ(path->steps().size(), 4u);
  EXPECT_EQ(path->steps()[2].index, 2);  // 1-based in text, 0-based stored
  EXPECT_EQ(path->steps()[3].kind, XmlPathStep::Kind::kAttribute);
  EXPECT_EQ(path->ToString(), "/order/items/item[3]/@sku");
}

TEST(XmlPathTest, RejectsBadPaths) {
  EXPECT_FALSE(XmlPath::Parse("").ok());
  EXPECT_FALSE(XmlPath::Parse("order/item").ok());
  EXPECT_FALSE(XmlPath::Parse("/order//item").ok());
  EXPECT_FALSE(XmlPath::Parse("/order/@attr/more").ok());
  EXPECT_FALSE(XmlPath::Parse("/order/item[0]").ok());  // 1-based
  EXPECT_FALSE(XmlPath::Parse("/order/item[x]").ok());
  EXPECT_FALSE(XmlPath::Parse("/order/item[99999999999999999999]").ok());
}

TEST(XmlPathTest, EvaluatesTextAndAttributes) {
  const char* text =
      R"(<order id="42"><item sku="a">Apples</item><item sku="b">Pears</item><total>7.5</total></order>)";
  auto eval = [&](const char* p) {
    auto path = XmlPath::Parse(p);
    EXPECT_TRUE(path.ok());
    return GetXmlObject(text, *path);
  };
  EXPECT_EQ(*eval("/order/@id"), "42");
  EXPECT_EQ(*eval("/order/item"), "Apples");
  EXPECT_EQ(*eval("/order/item[2]"), "Pears");
  EXPECT_EQ(*eval("/order/item[2]/@sku"), "b");
  EXPECT_EQ(*eval("/order/total"), "7.5");
  EXPECT_EQ(eval("/order/missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(eval("/wrongroot/@id").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(eval("/order/item[9]").status().code(), StatusCode::kNotFound);
}

TEST(XmlPathTest, IsXmlPathTextHeuristic) {
  EXPECT_TRUE(IsXmlPathText("/a/b"));
  EXPECT_FALSE(IsXmlPathText("$.a.b"));
  EXPECT_FALSE(IsXmlPathText(""));
}

// ---- End-to-end: Maxson caching over an XML column ----

class XmlMaxsonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("maxson_xml_test_" + std::to_string(::getpid())))
                .string();
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
    const std::string dir = root_ + "/warehouse/db/events";
    ASSERT_TRUE(storage::FileSystem::MakeDirs(dir).ok());
    storage::Schema schema;
    schema.AddField("id", storage::TypeKind::kInt64);
    schema.AddField("payload", storage::TypeKind::kString);
    for (int file = 0; file < 2; ++file) {
      storage::CorcWriterOptions options;
      options.rows_per_group = 50;
      storage::CorcWriter writer(
          dir + "/" + storage::FileSystem::PartFileName(file), schema,
          options);
      ASSERT_TRUE(writer.Open().ok());
      for (int i = 0; i < 200; ++i) {
        const int row = file * 200 + i;
        const std::string xml =
            "<event id=\"" + std::to_string(row) + "\"><kind>k" +
            std::to_string(row % 5) + "</kind><value>" +
            std::to_string(row * 2) + "</value></event>";
        ASSERT_TRUE(writer
                        .AppendRow({storage::Value::Int64(row),
                                    storage::Value::String(xml)})
                        .ok());
      }
      ASSERT_TRUE(writer.Close().ok());
    }
    ASSERT_TRUE(catalog_.CreateDatabase("db").ok());
    catalog::TableInfo info;
    info.database = "db";
    info.name = "events";
    info.schema = schema;
    info.location = dir;
    ASSERT_TRUE(catalog_.CreateTable(info).ok());
  }
  void TearDown() override {
    ASSERT_TRUE(storage::FileSystem::RemoveAll(root_).ok());
  }

  std::string root_;
  catalog::Catalog catalog_;
};

TEST_F(XmlMaxsonTest, GetXmlObjectWorksInQueries) {
  engine::EngineConfig config;
  config.default_database = "db";
  engine::QueryEngine engine(&catalog_, config);
  auto result = engine.Execute(
      "SELECT get_xml_object(payload, '/event/kind') AS k, COUNT(*) AS n "
      "FROM db.events GROUP BY get_xml_object(payload, '/event/kind') "
      "ORDER BY k");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->batch.num_rows(), 5u);
  EXPECT_EQ(result->batch.column(0).GetValue(0).ToString(), "k0");
  EXPECT_EQ(result->batch.column(1).GetValue(0).int64_value(), 80);
  EXPECT_GT(result->metrics.parse.records_parsed, 0u);
}

TEST_F(XmlMaxsonTest, XmlPathsAreCachedLikeJsonPaths) {
  core::MaxsonConfig config;
  config.cache_root = root_ + "/cache";
  config.engine.default_database = "db";
  config.predictor.epochs = 5;
  core::MaxsonSession session(&catalog_, config);

  workload::JsonPathLocation kind;
  kind.database = "db";
  kind.table = "events";
  kind.column = "payload";
  kind.path = "/event/kind";
  workload::JsonPathLocation value = kind;
  value.path = "/event/value";
  for (int day = 0; day < 14; ++day) {
    for (int rep = 0; rep < 3; ++rep) {
      workload::QueryRecord q;
      q.date = day;
      q.paths = {kind, value};
      session.RecordQuery(q);
    }
  }
  ASSERT_TRUE(session.TrainPredictor(8, 13).ok());
  auto report = session.RunMidnightCycle(14);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->selected.size(), 2u);

  const std::string sql =
      "SELECT get_xml_object(payload, '/event/kind') AS k, "
      "get_xml_object(payload, '/event/value') AS v FROM db.events "
      "WHERE id < 50";
  auto cached = session.Execute(sql);
  auto plain = session.ExecuteWithoutCache(sql);
  ASSERT_TRUE(cached.ok()) << cached.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_EQ(cached->batch.num_rows(), plain->batch.num_rows());
  for (size_t r = 0; r < cached->batch.num_rows(); ++r) {
    EXPECT_EQ(cached->batch.column(0).GetValue(r).ToString(),
              plain->batch.column(0).GetValue(r).ToString());
    EXPECT_EQ(cached->batch.column(1).GetValue(r).ToString(),
              plain->batch.column(1).GetValue(r).ToString());
  }
  EXPECT_EQ(cached->metrics.parse.records_parsed, 0u);  // no XML parsing
  EXPECT_GT(plain->metrics.parse.records_parsed, 0u);
}

}  // namespace
}  // namespace maxson::xml
