#include <gtest/gtest.h>

#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "xadt/scanner.h"
#include "xadt/xadt.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xorator::xadt {
namespace {

std::string EncodeXml(const std::string& xml_text, bool compressed) {
  auto frag = xml::ParseFragment(xml_text);
  EXPECT_TRUE(frag.ok()) << frag.status().ToString();
  std::vector<const xml::Node*> roots;
  for (const auto& c : (*frag)->children()) roots.push_back(c.get());
  return Encode(roots, compressed);
}

class XadtFormatTest : public ::testing::TestWithParam<bool> {};

TEST_P(XadtFormatTest, RoundTripsXml) {
  const char* kXml =
      "<SPEECH><SPEAKER>ROMEO</SPEAKER>"
      "<LINE>But soft <STAGEDIR>Rising</STAGEDIR> tail</LINE></SPEECH>"
      "<SPEECH><SPEAKER a=\"1\">JULIET</SPEAKER></SPEECH>";
  std::string bytes = EncodeXml(kXml, GetParam());
  EXPECT_EQ(IsCompressed(bytes), GetParam());
  auto xml_text = ToXmlString(bytes);
  ASSERT_TRUE(xml_text.ok());
  EXPECT_EQ(*xml_text, kXml);
}

TEST_P(XadtFormatTest, TextContent) {
  std::string bytes = EncodeXml("<s>a</s><s>b<t>c</t></s>", GetParam());
  auto text = TextContent(bytes);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "abc");
}

TEST_P(XadtFormatTest, GetElmSelfMatch) {
  // The paper's QE1 usage: rootElm == searchElm selects the elements whose
  // own text contains the keyword.
  std::string bytes = EncodeXml(
      "<LINE>my friend is here</LINE><LINE>no match</LINE>", GetParam());
  auto out = GetElm(bytes, "LINE", "LINE", "friend");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(IsCompressed(*out), GetParam());
  EXPECT_EQ(*ToXmlString(*out), "<LINE>my friend is here</LINE>");
}

TEST_P(XadtFormatTest, GetElmDescendantSearch) {
  std::string bytes = EncodeXml(
      "<LINE>one <STAGEDIR>Rising</STAGEDIR></LINE>"
      "<LINE>two <STAGEDIR>Falling</STAGEDIR></LINE>"
      "<LINE>three</LINE>",
      GetParam());
  auto rising = GetElm(bytes, "LINE", "STAGEDIR", "Rising");
  ASSERT_TRUE(rising.ok());
  EXPECT_EQ(*ToXmlString(*rising),
            "<LINE>one <STAGEDIR>Rising</STAGEDIR></LINE>");
  // Empty searchKey: existence of the element suffices.
  auto with_sd = GetElm(bytes, "LINE", "STAGEDIR", "");
  ASSERT_TRUE(with_sd.ok());
  auto decoded = Decode(*with_sd);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->ChildElements().size(), 2u);
}

TEST_P(XadtFormatTest, GetElmEmptySearchElmReturnsAllRoots) {
  std::string bytes =
      EncodeXml("<a>1</a><b>2</b><a>3</a>", GetParam());
  auto out = GetElm(bytes, "a", "", "ignored-key");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*ToXmlString(*out), "<a>1</a><a>3</a>");
}

TEST_P(XadtFormatTest, GetElmLevelLimit) {
  std::string bytes = EncodeXml(
      "<top><mid><deep>needle</deep></mid></top>", GetParam());
  // deep is 2 levels below top: level 1 misses it, level 2 finds it.
  auto l1 = GetElm(bytes, "top", "deep", "needle", 1);
  ASSERT_TRUE(l1.ok());
  EXPECT_EQ(*ToXmlString(*l1), "");
  auto l2 = GetElm(bytes, "top", "deep", "needle", 2);
  ASSERT_TRUE(l2.ok());
  EXPECT_NE(ToXmlString(*l2)->find("needle"), std::string::npos);
  auto any = GetElm(bytes, "top", "deep", "needle");
  ASSERT_TRUE(any.ok());
  EXPECT_NE(ToXmlString(*any)->find("needle"), std::string::npos);
}

TEST_P(XadtFormatTest, GetElmComposition) {
  // Output of getElm feeds another getElm (the paper's composition).
  std::string bytes = EncodeXml(
      "<aTuple><title>Join Order</title><authors>"
      "<author>Alice</author><author>Bob</author></authors></aTuple>"
      "<aTuple><title>Other</title><authors>"
      "<author>Carol</author></authors></aTuple>",
      GetParam());
  auto tuples = GetElm(bytes, "aTuple", "title", "Join");
  ASSERT_TRUE(tuples.ok());
  auto authors = GetElm(*tuples, "author", "", "");
  ASSERT_TRUE(authors.ok());
  EXPECT_EQ(*ToXmlString(*authors),
            "<author>Alice</author><author>Bob</author>");
}

TEST_P(XadtFormatTest, FindKeyInElm) {
  std::string bytes = EncodeXml(
      "<SPEAKER>HAMLET</SPEAKER><SPEAKER>YORICK</SPEAKER>", GetParam());
  EXPECT_EQ(*FindKeyInElm(bytes, "SPEAKER", "HAMLET"), 1);
  EXPECT_EQ(*FindKeyInElm(bytes, "SPEAKER", "ROMEO"), 0);
  // Empty key: existence test.
  EXPECT_EQ(*FindKeyInElm(bytes, "SPEAKER", ""), 1);
  EXPECT_EQ(*FindKeyInElm(bytes, "GHOST", ""), 0);
  // Empty element: any element's content.
  EXPECT_EQ(*FindKeyInElm(bytes, "", "YORICK"), 1);
  EXPECT_EQ(*FindKeyInElm(bytes, "", "nothing"), 0);
  // Both empty: error per the paper.
  EXPECT_FALSE(FindKeyInElm(bytes, "", "").ok());
}

TEST_P(XadtFormatTest, KeySearchSpansTextEvents) {
  // An element's content is its descendants' text in document order, which
  // the scanner delivers as separate text events. Keys straddle event
  // boundaries both through events shorter than the key ("c", "d") and
  // from a long event's tail ("xxab") into the next one ("cdyy").
  std::string bytes = EncodeXml(
      "<a>ab<b>c</b>d<a>e</a></a><a>xxab<b>cdyy</b></a>", GetParam());
  EXPECT_EQ(*FindKeyInElm(bytes, "a", "abcde"), 1);
  EXPECT_EQ(*FindKeyInElm(bytes, "a", "abcdy"), 1);
  EXPECT_EQ(*FindKeyInElm(bytes, "a", "bcdea"), 0);
  EXPECT_EQ(*FindKeyInElm(bytes, "b", "abc"), 0);
  // Empty searchElm: any element's content.
  EXPECT_EQ(*FindKeyInElm(bytes, "", "bcdyy"), 1);
  EXPECT_EQ(*FindKeyInElm(bytes, "", "bcdz"), 0);
  // getElm keeps one window per open searchElm: only the outer <a> of the
  // first root holds "bcde"; the inner <a> holds just "e".
  auto outer = GetElm(bytes, "a", "a", "bcde");
  ASSERT_TRUE(outer.ok());
  EXPECT_EQ(*ToXmlString(*outer), "<a>ab<b>c</b>d<a>e</a></a>");
  auto tails = GetElm(bytes, "b", "b", "dyy");
  ASSERT_TRUE(tails.ok());
  EXPECT_EQ(*ToXmlString(*tails), "<b>cdyy</b>");
}

TEST_P(XadtFormatTest, GetElmIndexTopLevel) {
  // The paper's QE2: second LINE of the fragment (empty parentElm means the
  // childElm is the root element of the XADT value).
  std::string bytes = EncodeXml(
      "<LINE>first</LINE><LINE>second</LINE><LINE>third</LINE>", GetParam());
  auto out = GetElmIndex(bytes, "", "LINE", 2, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*ToXmlString(*out), "<LINE>second</LINE>");
  auto range = GetElmIndex(bytes, "", "LINE", 2, 3);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*ToXmlString(*range), "<LINE>second</LINE><LINE>third</LINE>");
}

TEST_P(XadtFormatTest, GetElmIndexWithParent) {
  std::string bytes = EncodeXml(
      "<authors><author>A1</author><author>A2</author></authors>"
      "<authors><author>B1</author><author>B2</author>"
      "<author>B3</author></authors>",
      GetParam());
  auto out = GetElmIndex(bytes, "authors", "author", 2, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*ToXmlString(*out), "<author>A2</author><author>B2</author>");
  EXPECT_FALSE(GetElmIndex(bytes, "authors", "", 1, 1).ok());
}

TEST_P(XadtFormatTest, GetElmIndexSameTagOrder) {
  // Sibling positions count same-tag siblings only: OTHER children do not
  // shift LINE positions.
  std::string bytes = EncodeXml(
      "<sp><other>x</other><LINE>first</LINE><other>y</other>"
      "<LINE>second</LINE></sp>",
      GetParam());
  auto out = GetElmIndex(bytes, "sp", "LINE", 2, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*ToXmlString(*out), "<LINE>second</LINE>");
}

TEST_P(XadtFormatTest, UnnestPaperExample) {
  // Figure 9 of the paper.
  std::string bytes = EncodeXml(
      "<speaker>s1</speaker><speaker>s2</speaker>", GetParam());
  auto rows = Unnest(bytes, "speaker");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].text, "s1");
  EXPECT_EQ((*rows)[1].text, "s2");
  EXPECT_EQ(*TextContent((*rows)[0].value), "s1");
  EXPECT_EQ(*TextContent((*rows)[1].value), "s2");
  // Empty tag: every top-level fragment.
  auto all = Unnest(bytes, "");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST_P(XadtFormatTest, UnnestNestedSameTagOwnsItsSuffix) {
  // Matches come out in end-tag order; the inner match's text is the part
  // of the shared text after it opened, the outer match's is all of it.
  std::string bytes = EncodeXml("<a>x<a>y</a>z</a>", GetParam());
  auto rows = Unnest(bytes, "a");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].text, "y");
  EXPECT_EQ(*ToXmlString((*rows)[0].value), "<a>y</a>");
  EXPECT_EQ((*rows)[1].text, "xyz");
  EXPECT_EQ(*ToXmlString((*rows)[1].value), "<a>x<a>y</a>z</a>");
  for (const UnnestedFragment& row : *rows) {
    EXPECT_EQ(IsCompressed(row.value), GetParam());
    EXPECT_EQ(*TextContent(row.value), row.text);
  }
}

TEST_P(XadtFormatTest, UnnestDecodesEntitiesCdataAndComments) {
  // The raw form keeps entity references, CDATA sections and comments as
  // written; the compressed form stores the parsed text. Both yield the
  // decoded character data, and each fragment's text matches a re-scan of
  // its own value.
  const std::string xml_text =
      "<p><a>x &amp; <![CDATA[<y>]]><!-- note -->z</a><b>&lt;</b></p>";
  std::string bytes =
      GetParam() ? EncodeXml(xml_text, true) : "R" + xml_text;
  auto rows = Unnest(bytes, "a");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].text, "x & <y>z");
  EXPECT_EQ(*TextContent((*rows)[0].value), "x & <y>z");
  auto all = Unnest(bytes, "p");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].text, "x & <y>z<");
  EXPECT_EQ(*TextContent((*all)[0].value), (*all)[0].text);
}

TEST_P(XadtFormatTest, UnnestEmptyTagYieldsTopLevelFragments) {
  std::string bytes =
      EncodeXml("<a>1</a><b>2<c>3</c></b><a>4<a>5</a></a>", GetParam());
  auto rows = Unnest(bytes, "");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0].text, "1");
  EXPECT_EQ(*ToXmlString((*rows)[0].value), "<a>1</a>");
  EXPECT_EQ((*rows)[1].text, "23");
  EXPECT_EQ(*ToXmlString((*rows)[1].value), "<b>2<c>3</c></b>");
  EXPECT_EQ((*rows)[2].text, "45");
  EXPECT_EQ(*ToXmlString((*rows)[2].value), "<a>4<a>5</a></a>");
}

TEST_P(XadtFormatTest, OrderAccessStopsAtItsLastPosition) {
  // getElmIndex on the fragment roots returns once the end_pos-th root
  // has closed, so damage after it goes unread and the requested elements
  // still come back; asking past the damage reads it and fails. Appended
  // here: an end with no open element, in either representation.
  std::string bytes = EncodeXml(
      "<LINE>first</LINE><LINE>second</LINE><LINE>third</LINE>", GetParam());
  bytes += GetParam() ? "\x02" : "</LINE>";
  auto out = GetElmIndex(bytes, "", "LINE", 2, 3);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*ToXmlString(*out), "<LINE>second</LINE><LINE>third</LINE>");
  auto past = GetElmIndex(bytes, "", "LINE", 2, 4);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kParseError);
  // findKeyInElm's early return has the same reach.
  EXPECT_EQ(*FindKeyInElm(bytes, "LINE", "third"), 1);
  EXPECT_FALSE(FindKeyInElm(bytes, "LINE", "fourth").ok());
}

TEST_P(XadtFormatTest, EmptyValueBehaves) {
  std::string bytes = Encode({}, GetParam());
  EXPECT_EQ(*ToXmlString(bytes), "");
  EXPECT_EQ(*FindKeyInElm(bytes, "x", ""), 0);
  auto out = GetElm(bytes, "x", "", "");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*ToXmlString(*out), "");
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, XadtFormatTest,
                         ::testing::Values(false, true));

TEST(XadtCompressionTest, RepeatedTagsCompressWell) {
  std::string xml_text;
  for (int i = 0; i < 200; ++i) {
    xml_text += "<LINE>word</LINE>";
  }
  std::string raw = EncodeXml(xml_text, false);
  std::string compressed = EncodeXml(xml_text, true);
  EXPECT_LT(static_cast<double>(compressed.size()),
            static_cast<double>(raw.size()) * 0.6);
}

TEST(XadtCompressionTest, UniqueTagsCompressPoorly) {
  // A single small fragment: the dictionary overhead dominates.
  std::string raw = EncodeXml("<a>x</a>", false);
  std::string compressed = EncodeXml("<a>x</a>", true);
  EXPECT_GE(compressed.size() + 2, raw.size());
}

TEST(XadtCompressionTest, CompressionPaysOnlyAtTwentyPercent) {
  EXPECT_TRUE(CompressionPays(1000, 800));   // saves exactly 20%
  EXPECT_FALSE(CompressionPays(1000, 801));  // saves just under
  EXPECT_TRUE(CompressionPays(1000, 10));
  EXPECT_FALSE(CompressionPays(1000, 1200));  // grows
  EXPECT_FALSE(CompressionPays(0, 0));        // nothing sampled
  // Many repeated tags: compression wins.
  std::string xml_text;
  for (char c = 'a'; c <= 'h'; ++c) {
    xml_text += std::string("<LINE>") + c + "</LINE>";
  }
  EXPECT_TRUE(CompressionPays(EncodeXml(xml_text, false).size(),
                              EncodeXml(xml_text, true).size()));
}

TEST(XadtErrorsTest, DirectoryRepresentationRejected) {
  // The 'D' (directory-prefixed) values of the fuzz seeds
  // corpus_xadt/directory_raw and directory_compressed, selector byte
  // dropped. 'D' is no longer a representation: every entry point reports
  // the unknown marker as a parse error.
  using namespace std::string_view_literals;
  const std::string_view kValues[] = {
      "D\x03\x01;<\x22^\x19R<LINE>but soft <STAGEDIR>aside</STAGEDIR> what "
      "light</LINE><LINE>through yonder window</LINE><LINE a=\x22" "1\x22>"
      "breaks</LINE>"sv,
      "D\x03\x12'9\x1bT\x0f" "C\x03\x04LINE\x08STAGEDIR\x01" "a\x01\x00\x00"
      "\x03\x09" "but soft \x01\x01\x00\x03\x05" "aside\x02\x03\x0b what light"
      "\x02\x01\x00\x00\x03\x15through yonder window\x02\x01\x00\x01\x02\x01"
      "1\x03\x06" "breaks\x02"sv,
  };
  ASSERT_EQ(kValues[0].size(), 127u);
  ASSERT_EQ(kValues[1].size(), 107u);
  for (std::string_view value : kValues) {
    auto expect_parse_error = [&](const Status& status, const char* what) {
      EXPECT_EQ(status.code(), StatusCode::kParseError)
          << what << ": " << status.ToString();
    };
    expect_parse_error(FragmentScanner::Create(value).status(), "scanner");
    expect_parse_error(Decode(value).status(), "Decode");
    expect_parse_error(ToXmlString(value).status(), "ToXmlString");
    expect_parse_error(TextContent(value).status(), "TextContent");
    expect_parse_error(GetElm(value, "LINE", "LINE", "soft").status(),
                       "getElm");
    expect_parse_error(FindKeyInElm(value, "LINE", "soft").status(),
                       "findKeyInElm");
    expect_parse_error(GetElmIndex(value, "", "LINE", 2, 2).status(),
                       "getElmIndex");
    expect_parse_error(Unnest(value, "").status(), "unnest");
    EXPECT_FALSE(IsCompressed(value));
  }
}

TEST(XadtErrorsTest, BadInputsRejected) {
  EXPECT_FALSE(Decode("Zgarbage").ok());
  EXPECT_FALSE(GetElm("Rx", "", "a", "b").ok());
  EXPECT_FALSE(GetElmIndex("R<a/>", "a", "", 1, 1).ok());
  // Truncated compressed payloads fail cleanly.
  std::string bytes = EncodeXml("<a><b>text</b></a>", true);
  std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_FALSE(Decode(truncated).ok());
}

TEST(XadtPropertyTest, RandomDocsRoundTripBothFormats) {
  auto dtd = xml::ParseDtd(datagen::kSigmodDtd);
  ASSERT_TRUE(dtd.ok());
  for (uint64_t seed = 0; seed < 20; ++seed) {
    datagen::RandomDocOptions opts;
    opts.seed = seed;
    datagen::RandomDocGenerator gen(&*dtd, opts);
    auto doc = gen.Generate("PP");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    std::vector<const xml::Node*> roots = {doc->get()};
    std::string raw = Encode(roots, false);
    std::string compressed = Encode(roots, true);
    auto raw_xml = ToXmlString(raw);
    auto comp_xml = ToXmlString(compressed);
    ASSERT_TRUE(raw_xml.ok());
    ASSERT_TRUE(comp_xml.ok());
    EXPECT_EQ(*raw_xml, *comp_xml) << "seed " << seed;
    EXPECT_EQ(*TextContent(raw), *TextContent(compressed));
  }
}

}  // namespace
}  // namespace xorator::xadt
