#include <gtest/gtest.h>

#include <set>

#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "xadt/scanner.h"
#include "xadt/xadt.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xorator::xadt {
namespace {

using EventKind = FragmentScanner::EventKind;

std::string EncodeXml(const std::string& xml_text, bool compressed) {
  auto frag = xml::ParseFragment(xml_text);
  EXPECT_TRUE(frag.ok()) << frag.status().ToString();
  std::vector<const xml::Node*> roots;
  for (const auto& c : (*frag)->children()) roots.push_back(c.get());
  return Encode(roots, compressed);
}

// Appends every element of `node`'s subtree in end-tag (post-) order.
void PostOrder(const xml::Node& node, std::vector<const xml::Node*>* out) {
  if (!node.is_element()) return;
  for (const auto& c : node.children()) PostOrder(*c, out);
  out->push_back(&node);
}

struct FlatEvent {
  EventKind kind;
  std::string name_or_text;
};

Result<std::vector<FlatEvent>> Drain(std::string_view bytes) {
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner,
                      FragmentScanner::Create(bytes));
  std::vector<FlatEvent> out;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    if (event.kind == EventKind::kEof) return out;
    FlatEvent flat;
    flat.kind = event.kind;
    flat.name_or_text = event.kind == EventKind::kText
                            ? std::string(event.text)
                            : std::string(event.name);
    out.push_back(std::move(flat));
  }
}

class ScannerFormatTest : public ::testing::TestWithParam<bool> {};

TEST_P(ScannerFormatTest, EventSequence) {
  std::string bytes =
      EncodeXml("<a><b>hi</b><c/></a><d>tail</d>", GetParam());
  auto events = Drain(bytes);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  std::vector<FlatEvent> expected = {
      {EventKind::kStart, "a"}, {EventKind::kStart, "b"},
      {EventKind::kText, "hi"}, {EventKind::kEnd, "b"},
      {EventKind::kStart, "c"}, {EventKind::kEnd, "c"},
      {EventKind::kEnd, "a"},   {EventKind::kStart, "d"},
      {EventKind::kText, "tail"}, {EventKind::kEnd, "d"}};
  ASSERT_EQ(events->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*events)[i].kind, expected[i].kind) << i;
    EXPECT_EQ((*events)[i].name_or_text, expected[i].name_or_text) << i;
  }
}

TEST_P(ScannerFormatTest, OffsetsSliceToValidFragments) {
  std::string bytes = EncodeXml(
      "<x><y a=\"1\">one</y></x><x>two</x>", GetParam());
  auto scanner = FragmentScanner::Create(bytes);
  ASSERT_TRUE(scanner.ok());
  std::string header(scanner->header());
  // Capture the byte range of each top-level element and re-decode it.
  std::vector<std::pair<size_t, size_t>> ranges;
  size_t depth = 0;
  size_t open_offset = 0;
  while (true) {
    auto event = scanner->Next();
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    if (event->kind == EventKind::kEof) break;
    if (event->kind == EventKind::kStart) {
      if (depth == 0) open_offset = event->offset;
      ++depth;
    } else if (event->kind == EventKind::kEnd) {
      --depth;
      if (depth == 0) ranges.emplace_back(open_offset, event->end_offset);
    }
  }
  ASSERT_EQ(ranges.size(), 2u);
  std::string first = header.empty() ? "R" : header;
  first.append(bytes.substr(ranges[0].first,
                            ranges[0].second - ranges[0].first));
  auto xml_text = ToXmlString(first);
  ASSERT_TRUE(xml_text.ok()) << xml_text.status().ToString();
  EXPECT_EQ(*xml_text, "<x><y a=\"1\">one</y></x>");
  std::string second = header.empty() ? "R" : header;
  second.append(bytes.substr(ranges[1].first,
                             ranges[1].second - ranges[1].first));
  EXPECT_EQ(*ToXmlString(second), "<x>two</x>");
}

TEST_P(ScannerFormatTest, AgreesWithDomOnRandomDocs) {
  auto dtd = xml::ParseDtd(datagen::kShakespeareDtd);
  ASSERT_TRUE(dtd.ok());
  for (uint64_t seed = 0; seed < 10; ++seed) {
    datagen::RandomDocOptions opts;
    opts.seed = seed;
    datagen::RandomDocGenerator gen(&*dtd, opts);
    auto doc = gen.Generate("PLAY");
    ASSERT_TRUE(doc.ok());
    std::vector<const xml::Node*> roots = {doc->get()};
    std::string bytes = Encode(roots, GetParam());
    // Text content via the scanner equals DOM text content.
    auto text = TextContent(bytes);
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(*text, (*doc)->TextContent()) << "seed " << seed;
    // Event stream is balanced and name-consistent.
    auto events = Drain(bytes);
    ASSERT_TRUE(events.ok()) << "seed " << seed;
    int depth = 0;
    for (const FlatEvent& e : *events) {
      if (e.kind == EventKind::kStart) ++depth;
      if (e.kind == EventKind::kEnd) --depth;
      ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    // One-pass unnest, per element name: every fragment's text equals a
    // re-scan of its own value and the DOM element's text, in end-tag
    // order.
    std::vector<const xml::Node*> elements;
    PostOrder(**doc, &elements);
    std::set<std::string> names;
    for (const xml::Node* e : elements) names.insert(e->name());
    for (const std::string& name : names) {
      auto rows = Unnest(bytes, name);
      ASSERT_TRUE(rows.ok()) << "seed " << seed << " " << name;
      std::vector<const xml::Node*> want;
      for (const xml::Node* e : elements) {
        if (e->name() == name) want.push_back(e);
      }
      ASSERT_EQ(rows->size(), want.size()) << "seed " << seed << " " << name;
      for (size_t i = 0; i < want.size(); ++i) {
        const UnnestedFragment& row = (*rows)[i];
        auto rescanned = TextContent(row.value);
        ASSERT_TRUE(rescanned.ok()) << "seed " << seed << " " << name;
        EXPECT_EQ(row.text, *rescanned) << "seed " << seed << " " << name;
        EXPECT_EQ(row.text, want[i]->TextContent())
            << "seed " << seed << " " << name << " #" << i;
      }
    }
  }
}

// getElmIndex on the fragment roots by its definition: the fragment-root
// `tag` elements of `roots` (Unnest(value, "")) at positions
// [start, end], rendered to XML.
Result<std::string> RootsAtPositions(
    const std::vector<UnnestedFragment>& roots, std::string_view tag,
    int start, int end) {
  std::string out;
  int position = 0;
  for (const UnnestedFragment& root : roots) {
    XO_ASSIGN_OR_RETURN(std::vector<FlatEvent> events, Drain(root.value));
    if (events.empty() || events[0].name_or_text != tag) continue;
    ++position;
    if (position < start || position > end) continue;
    XO_ASSIGN_OR_RETURN(std::string xml, ToXmlString(root.value));
    out += xml;
  }
  return out;
}

TEST_P(ScannerFormatTest, OrderAccessOnRootsMatchesUnnestOnRandomDocs) {
  // getElmIndex(v, "", tag, s, e) stops once the e-th root `tag` closes;
  // differential check against unnest over whole values. The values are
  // the LINE children of each SPEECH (XORator's speech_line) and all of a
  // SPEECH's children, whose roots mix SPEAKER, LINE and STAGEDIR while
  // STAGEDIR also nests inside LINE.
  const std::pair<int, int> kRanges[] = {
      {1, 1}, {2, 2}, {1, 3},  {3, 5},     {2, 1000}, {1000, 1000},
      {4, 2}, {0, 0}, {-3, -1}, {-1, 2}, {0, 1}};
  auto dtd = xml::ParseDtd(datagen::kShakespeareDtd);
  ASSERT_TRUE(dtd.ok());
  size_t checked = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    datagen::RandomDocOptions opts;
    opts.seed = seed;
    datagen::RandomDocGenerator gen(&*dtd, opts);
    auto doc = gen.Generate("PLAY");
    ASSERT_TRUE(doc.ok());
    std::vector<const xml::Node*> elements;
    PostOrder(**doc, &elements);
    for (const xml::Node* speech : elements) {
      if (speech->name() != "SPEECH") continue;
      for (const std::vector<const xml::Node*>& fragments :
           {speech->ChildElements("LINE"), speech->ChildElements()}) {
        std::string bytes = Encode(fragments, GetParam());
        auto roots = Unnest(bytes, "");
        ASSERT_TRUE(roots.ok()) << "seed " << seed;
        for (std::string_view tag : {"LINE", "STAGEDIR", "SPEAKER"}) {
          for (auto [start, end] : kRanges) {
            auto got = GetElmIndex(bytes, "", tag, start, end);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            auto want = RootsAtPositions(*roots, tag, start, end);
            ASSERT_TRUE(want.ok()) << want.status().ToString();
            EXPECT_EQ(*ToXmlString(*got), *want)
                << "seed " << seed << " " << tag << " [" << start << ", "
                << end << "]";
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, ScannerFormatTest,
                         ::testing::Values(false, true));

TEST(ScannerRawTest, HandlesEntitiesInText) {
  auto events = Drain("R<a>x &amp; y</a>");
  ASSERT_TRUE(events.ok());
  EXPECT_EQ((*events)[1].name_or_text, "x & y");
}

TEST(ScannerRawTest, HandlesCommentsAndCdata) {
  auto events = Drain("R<a><!-- skip --><![CDATA[<raw>&]]></a>");
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[1].kind, EventKind::kText);
  EXPECT_EQ((*events)[1].name_or_text, "<raw>&");
}

TEST(ScannerRawTest, AttributesWithAngleBrackets) {
  auto events = Drain("R<a k=\"x>y\">t</a>");
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].name_or_text, "a");
}

TEST(ScannerRawTest, SelfClosingProducesStartEnd) {
  auto events = Drain("R<a/><b x='1'/>");
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ((*events)[0].kind, EventKind::kStart);
  EXPECT_EQ((*events)[1].kind, EventKind::kEnd);
  EXPECT_EQ((*events)[2].name_or_text, "b");
}

TEST(ScannerRawTest, MalformedInputsFailCleanly) {
  for (const char* bad :
       {"R<a>", "R</a>", "R<a></b>", "R<a", "R<a attr='x>y</a>",
        "R<!-- unterminated", "R<![CDATA[ unterminated"}) {
    auto events = Drain(bad);
    EXPECT_FALSE(events.ok()) << bad;
  }
}

TEST(ScannerCompressedTest, MalformedInputsFailCleanly) {
  std::string good = EncodeXml("<a><b>t</b></a>", true);
  // Truncations at every prefix either fail or end cleanly, never crash.
  for (size_t len = 0; len < good.size(); ++len) {
    auto events = Drain(good.substr(0, len));
    XO_DISCARD_STATUS(events, "a truncated prefix may fail or end cleanly; "
                              "the test only asserts no crash");
  }
  // Corrupted opcode.
  std::string bad = good;
  bad[bad.size() - 1] = '\x7F';
  EXPECT_FALSE(Drain(bad).ok());
}

TEST(ScannerTest, EmptyValue) {
  auto events = Drain("");
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
  auto raw_events = Drain("R");
  ASSERT_TRUE(raw_events.ok());
  EXPECT_TRUE(raw_events->empty());
}

TEST(ScannerTest, UnknownMarkerRejected) {
  EXPECT_FALSE(FragmentScanner::Create("Zxx").ok());
}

TEST(ScannerTest, HeaderForCompressed) {
  std::string bytes = EncodeXml("<tag>t</tag>", true);
  auto scanner = FragmentScanner::Create(bytes);
  ASSERT_TRUE(scanner.ok());
  EXPECT_TRUE(scanner->compressed());
  EXPECT_GT(scanner->header().size(), 1u);
  EXPECT_EQ(scanner->header()[0], 'C');
}

}  // namespace
}  // namespace xorator::xadt
