#include <gtest/gtest.h>

#include "benchutil/fixture.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "xadt/scanner.h"
#include "xadt/xadt.h"
#include "xml/dtd.h"
#include "xml/parser.h"

namespace xorator::xadt {
namespace {

std::vector<const xml::Node*> Roots(const xml::Node& frag) {
  std::vector<const xml::Node*> out;
  for (const auto& c : frag.children()) out.push_back(c.get());
  return out;
}

class DirectoryFormatTest : public ::testing::TestWithParam<bool> {
 protected:
  std::string EncodeDir(const std::string& xml_text) {
    auto frag = xml::ParseFragment(xml_text);
    EXPECT_TRUE(frag.ok());
    return EncodeWithDirectory(Roots(**frag), GetParam());
  }
  std::string EncodePlain(const std::string& xml_text) {
    auto frag = xml::ParseFragment(xml_text);
    EXPECT_TRUE(frag.ok());
    return Encode(Roots(**frag), GetParam());
  }
};

TEST_P(DirectoryFormatTest, MarkersAndDetection) {
  std::string bytes = EncodeDir("<a>1</a><b>2</b>");
  EXPECT_TRUE(HasDirectory(bytes));
  EXPECT_EQ(IsCompressed(bytes), GetParam());
  EXPECT_FALSE(HasDirectory(EncodePlain("<a>1</a>")));
}

TEST_P(DirectoryFormatTest, RoundTripsLikePlainEncoding) {
  const char* kXml =
      "<LINE>one <STAGEDIR>Rising</STAGEDIR> tail</LINE>"
      "<LINE>two</LINE><LINE a=\"x\">three</LINE>";
  std::string dir = EncodeDir(kXml);
  std::string plain = EncodePlain(kXml);
  EXPECT_EQ(*ToXmlString(dir), *ToXmlString(plain));
  EXPECT_EQ(*TextContent(dir), *TextContent(plain));
}

TEST_P(DirectoryFormatTest, ScannerExposesTopRanges) {
  std::string bytes = EncodeDir("<a>1</a><b>2</b><a>3</a>");
  auto scanner = FragmentScanner::Create(bytes);
  ASSERT_TRUE(scanner.ok()) << scanner.status().ToString();
  EXPECT_TRUE(scanner->has_directory());
  ASSERT_EQ(scanner->top_ranges().size(), 3u);
  EXPECT_EQ(*scanner->NameAt(scanner->top_ranges()[0].first), "a");
  EXPECT_EQ(*scanner->NameAt(scanner->top_ranges()[1].first), "b");
  EXPECT_EQ(*scanner->NameAt(scanner->top_ranges()[2].first), "a");
}

TEST_P(DirectoryFormatTest, AllMethodsAgreeWithPlainEncoding) {
  const char* kXml =
      "<LINE>my friend is here</LINE>"
      "<LINE>second <STAGEDIR>Rising</STAGEDIR></LINE>"
      "<LINE>third love line</LINE><OTHER>x</OTHER>";
  std::string dir = EncodeDir(kXml);
  std::string plain = EncodePlain(kXml);
  // getElm.
  EXPECT_EQ(*ToXmlString(*GetElm(dir, "LINE", "LINE", "friend")),
            *ToXmlString(*GetElm(plain, "LINE", "LINE", "friend")));
  EXPECT_EQ(*ToXmlString(*GetElm(dir, "LINE", "STAGEDIR", "")),
            *ToXmlString(*GetElm(plain, "LINE", "STAGEDIR", "")));
  // findKeyInElm.
  EXPECT_EQ(*FindKeyInElm(dir, "LINE", "love"),
            *FindKeyInElm(plain, "LINE", "love"));
  EXPECT_EQ(*FindKeyInElm(dir, "", "Rising"),
            *FindKeyInElm(plain, "", "Rising"));
  // getElmIndex: both the directory fast path and the parent-scoped scan.
  EXPECT_EQ(*ToXmlString(*GetElmIndex(dir, "", "LINE", 2, 3)),
            *ToXmlString(*GetElmIndex(plain, "", "LINE", 2, 3)));
  EXPECT_EQ(*ToXmlString(*GetElmIndex(dir, "LINE", "STAGEDIR", 1, 1)),
            *ToXmlString(*GetElmIndex(plain, "LINE", "STAGEDIR", 1, 1)));
  // unnest: empty tag and named tag.
  auto dir_all = Unnest(dir, "");
  auto plain_all = Unnest(plain, "");
  ASSERT_EQ(dir_all->size(), plain_all->size());
  for (size_t i = 0; i < dir_all->size(); ++i) {
    EXPECT_EQ(*ToXmlString((*dir_all)[i].value),
              *ToXmlString((*plain_all)[i].value));
    EXPECT_EQ((*dir_all)[i].text, (*plain_all)[i].text);
  }
  auto dir_lines = Unnest(dir, "LINE");
  auto plain_lines = Unnest(plain, "LINE");
  ASSERT_EQ(dir_lines->size(), plain_lines->size());
  for (size_t i = 0; i < dir_lines->size(); ++i) {
    EXPECT_EQ(*ToXmlString((*dir_lines)[i].value),
              *ToXmlString((*plain_lines)[i].value));
    EXPECT_EQ((*dir_lines)[i].text, (*plain_lines)[i].text);
  }
}

TEST_P(DirectoryFormatTest, RandomDocsAgreeWithPlainEncoding) {
  auto dtd = xml::ParseDtd(datagen::kShakespeareDtd);
  ASSERT_TRUE(dtd.ok());
  for (uint64_t seed = 0; seed < 8; ++seed) {
    datagen::RandomDocOptions opts;
    opts.seed = seed;
    datagen::RandomDocGenerator gen(&*dtd, opts);
    auto doc = gen.Generate("SPEECH");
    ASSERT_TRUE(doc.ok());
    std::vector<const xml::Node*> roots = {doc->get()};
    std::string dir = EncodeWithDirectory(roots, GetParam());
    std::string plain = Encode(roots, GetParam());
    EXPECT_EQ(*ToXmlString(dir), *ToXmlString(plain)) << seed;
    EXPECT_EQ(*ToXmlString(*GetElmIndex(dir, "", "SPEECH", 1, 1)),
              *ToXmlString(*GetElmIndex(plain, "", "SPEECH", 1, 1)))
        << seed;
    EXPECT_EQ(*FindKeyInElm(dir, "SPEAKER", ""),
              *FindKeyInElm(plain, "SPEAKER", "")) << seed;
  }
}

TEST_P(DirectoryFormatTest, EmptyFragmentList) {
  std::string bytes = EncodeWithDirectory({}, GetParam());
  EXPECT_TRUE(HasDirectory(bytes));
  EXPECT_EQ(*ToXmlString(bytes), "");
  EXPECT_TRUE(Unnest(bytes, "")->empty());
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, DirectoryFormatTest,
                         ::testing::Values(false, true));

TEST(DirectoryFormatTest2, MalformedDirectoryRejected) {
  // A directory that claims ranges beyond the payload.
  std::string bad = "D";
  bad += '\x01';  // one entry
  bad += '\x00';  // start 0
  bad += '\x7F';  // length 127 (way past payload)
  bad += "R<a/>";
  EXPECT_FALSE(FragmentScanner::Create(bad).ok());
  // A directory with no payload at all.
  std::string empty_payload = "D";
  empty_payload += '\x00';
  EXPECT_FALSE(FragmentScanner::Create(empty_payload).ok());
}

TEST(DirectoryLoaderTest, LoadedDatabaseAnswersQueriesIdentically) {
  datagen::ShakespeareOptions gen_opts;
  gen_opts.plays = 2;
  auto corpus = datagen::ShakespeareGenerator(gen_opts).GenerateCorpus();
  std::vector<const xml::Node*> docs;
  for (const auto& d : corpus) docs.push_back(d.get());

  benchutil::ExperimentOptions plain_opts;
  plain_opts.mapping = benchutil::Mapping::kXorator;
  auto plain = benchutil::BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                            plain_opts);
  ASSERT_TRUE(plain.ok());

  benchutil::ExperimentOptions dir_opts = plain_opts;
  dir_opts.load_options.use_directory = true;
  auto dir = benchutil::BuildExperimentDb(datagen::kShakespeareDtd, docs,
                                          dir_opts);
  ASSERT_TRUE(dir.ok());

  for (const char* sql : {
           "SELECT COUNT(*) AS n FROM speech, "
           "table(unnest(speech_line, 'LINE')) l",
           "SELECT COUNT(*) AS n FROM speech "
           "WHERE findKeyInElm(speech_line, 'LINE', 'love') = 1",
           "SELECT COUNT(*) AS n FROM speech, "
           "table(unnest(getElmIndex(speech_line, '', 'LINE', 2, 2), "
           "'LINE')) u",
       }) {
    auto a = plain->db->Query(sql);
    auto b = dir->db->Query(sql);
    ASSERT_TRUE(a.ok()) << sql;
    ASSERT_TRUE(b.ok()) << sql;
    EXPECT_EQ(a->rows[0][0].AsInt(), b->rows[0][0].AsInt()) << sql;
  }
  // The directory representation costs a few bytes per value.
  EXPECT_GE(dir->db->DataBytes(), plain->db->DataBytes());
}

}  // namespace
}  // namespace xorator::xadt
