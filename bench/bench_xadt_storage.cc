// Ablation for Section 3.4.1: raw vs compressed XADT storage. Measures
// encode/decode/method costs (google-benchmark), the `unnest` table UDF and
// the scanner's event rate on column values shaped like the paper's
// corpora, and prints a size sweep over fragments with varying tag
// densities, which drives the 20% rule.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "benchutil/benchutil.h"
#include "datagen/generators.h"
#include "ordb/functions.h"
#include "xadt/functions.h"
#include "xadt/scanner.h"
#include "xadt/xadt.h"
#include "xml/parser.h"

namespace xorator {
namespace {

std::unique_ptr<xml::Node> MakeSpeechFragment(int lines) {
  auto frag = xml::Node::Element("#fragment");
  for (int i = 0; i < lines; ++i) {
    auto line = xml::Node::Element("LINE");
    line->AddChild(xml::Node::Text(
        "but soft what light through yonder window breaks " +
        std::to_string(i)));
    if (i % 7 == 0) {
      line->AddElementWithText("STAGEDIR", "Rising");
    }
    frag->AddChild(std::move(line));
  }
  return frag;
}

std::vector<const xml::Node*> Children(const xml::Node& frag) {
  std::vector<const xml::Node*> out;
  for (const auto& c : frag.children()) out.push_back(c.get());
  return out;
}

void BM_EncodeRaw(benchmark::State& state) {
  auto frag = MakeSpeechFragment(static_cast<int>(state.range(0)));
  auto roots = Children(*frag);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xadt::EncodeRaw(roots));
  }
}
BENCHMARK(BM_EncodeRaw)->Arg(4)->Arg(64);

void BM_EncodeCompressed(benchmark::State& state) {
  auto frag = MakeSpeechFragment(static_cast<int>(state.range(0)));
  auto roots = Children(*frag);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xadt::EncodeCompressed(roots));
  }
}
BENCHMARK(BM_EncodeCompressed)->Arg(4)->Arg(64);

void BM_DecodeRaw(benchmark::State& state) {
  auto frag = MakeSpeechFragment(static_cast<int>(state.range(0)));
  std::string bytes = xadt::EncodeRaw(Children(*frag));
  for (auto _ : state) {
    auto decoded = xadt::Decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeRaw)->Arg(4)->Arg(64);

void BM_DecodeCompressed(benchmark::State& state) {
  auto frag = MakeSpeechFragment(static_cast<int>(state.range(0)));
  std::string bytes = xadt::EncodeCompressed(Children(*frag));
  for (auto _ : state) {
    auto decoded = xadt::Decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeCompressed)->Arg(4)->Arg(64);

void BM_GetElm(benchmark::State& state) {
  auto frag = MakeSpeechFragment(64);
  std::string bytes = state.range(0) == 0
                          ? xadt::EncodeRaw(Children(*frag))
                          : xadt::EncodeCompressed(Children(*frag));
  for (auto _ : state) {
    auto out = xadt::GetElm(bytes, "LINE", "STAGEDIR", "Rising");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GetElm)->Arg(0)->Arg(1);

void BM_FindKeyInElm(benchmark::State& state) {
  auto frag = MakeSpeechFragment(64);
  std::string bytes = state.range(0) == 0
                          ? xadt::EncodeRaw(Children(*frag))
                          : xadt::EncodeCompressed(Children(*frag));
  for (auto _ : state) {
    auto out = xadt::FindKeyInElm(bytes, "LINE", "window");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FindKeyInElm)->Arg(0)->Arg(1);

void BM_GetElmIndexSecondLine(benchmark::State& state) {
  // QS6's order access: the second LINE of a raw speech_line value. The
  // scan stops once that LINE closes, so the cost should not grow with
  // the fragment's length. range(0): lines in the fragment.
  auto frag = MakeSpeechFragment(static_cast<int>(state.range(0)));
  std::string bytes = xadt::EncodeRaw(Children(*frag));
  for (auto _ : state) {
    auto out = xadt::GetElmIndex(bytes, "", "LINE", 2, 2);
    benchmark::DoNotOptimize(out);
  }
  state.counters["bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_GetElmIndexSecondLine)->Arg(4)->Arg(256);

void BM_Unnest(benchmark::State& state) {
  auto frag = MakeSpeechFragment(64);
  std::string bytes = state.range(0) == 0
                          ? xadt::EncodeRaw(Children(*frag))
                          : xadt::EncodeCompressed(Children(*frag));
  for (auto _ : state) {
    auto out = xadt::Unnest(bytes, "LINE");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Unnest)->Arg(0)->Arg(1);

const xml::Node* FindFirst(const xml::Node& node, std::string_view name) {
  if (node.is_element() && node.name() == name) return &node;
  for (const auto& c : node.children()) {
    if (const xml::Node* hit = FindFirst(*c, name)) return hit;
  }
  return nullptr;
}

// An XADT column value as the XORator mapping stores it, with the tag the
// paper queries unnest it by. range 0: a SIGMOD `pp_slist` (the sListTuple
// children of one proceedings' sList, compressed, as QG2/QG4 unnest it);
// range 1: a Shakespeare `speech_line` (the LINE children of one SPEECH,
// raw, as QS1 unnests it).
struct ColumnValue {
  std::string bytes;
  std::string tag;
};

ColumnValue MakeColumnValue(int64_t which) {
  std::unique_ptr<xml::Node> doc;
  const char* parent = nullptr;
  ColumnValue out;
  if (which == 0) {
    doc = datagen::SigmodGenerator().GenerateProceedings(0);
    parent = "sList";
    out.tag = "sListTuple";
  } else {
    doc = datagen::ShakespeareGenerator().GeneratePlay(0);
    parent = "SPEECH";
    out.tag = "LINE";
  }
  const xml::Node* node = FindFirst(*doc, parent);
  std::vector<const xml::Node*> children =
      node == nullptr ? std::vector<const xml::Node*>()
                      : node->ChildElements(out.tag);
  out.bytes = xadt::Encode(children, /*compressed=*/which == 0);
  return out;
}

// The registered `unnest` table function through the UDF dispatch path,
// argument marshaling included: each call yields every fragment's text and
// value, the work one `table(unnest(...))` row of the outer table costs.
void BM_UnnestUdf(benchmark::State& state) {
  ColumnValue column = MakeColumnValue(state.range(0));
  ordb::FunctionRegistry registry = ordb::FunctionRegistry::WithBuiltins();
  if (!xadt::RegisterXadtFunctions(&registry).ok()) {
    state.SkipWithError("RegisterXadtFunctions failed");
    return;
  }
  const ordb::TableFunction* unnest = registry.FindTable("unnest");
  const std::vector<ordb::Value> args = {ordb::Value::Xadt(column.bytes),
                                         ordb::Value::Varchar(column.tag)};
  size_t rows = 0;
  for (auto _ : state) {
    auto out = ordb::InvokeTable(*unnest, args, nullptr);
    if (!out.ok()) {
      state.SkipWithError("unnest failed");
      return;
    }
    rows += out->size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["bytes"] = static_cast<double>(column.bytes.size());
  state.counters["rows/s"] =
      benchmark::Counter(static_cast<double>(rows), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UnnestUdf)->Arg(0)->Arg(1);

// Scanner throughput: drains every event of the value once per iteration.
void BM_ScanDrain(benchmark::State& state) {
  ColumnValue column = MakeColumnValue(state.range(0));
  size_t events = 0;
  for (auto _ : state) {
    auto scanner = xadt::FragmentScanner::Create(column.bytes);
    if (!scanner.ok()) {
      state.SkipWithError("FragmentScanner::Create failed");
      return;
    }
    while (true) {
      auto event = scanner->Next();
      if (!event.ok()) {
        state.SkipWithError("scan failed");
        return;
      }
      if (event->kind == xadt::FragmentScanner::EventKind::kEof) break;
      ++events;
      benchmark::DoNotOptimize(event);
    }
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScanDrain)->Arg(0)->Arg(1);

void PrintSizeSweep() {
  std::printf(
      "\n== XADT storage-size sweep (drives the Section 4.1 20%% rule) "
      "==\n");
  benchutil::TablePrinter table({"Fragment", "Raw bytes", "Compressed bytes",
                                 "Saving", "Chooser"});
  struct Case {
    const char* label;
    const char* xml;
    int repeat;
  };
  const Case kCases[] = {
      {"1 short element", "<a>x</a>", 1},
      {"8 repeated tags", "<LINE>word word</LINE>", 8},
      {"64 repeated tags", "<LINE>word word</LINE>", 64},
      {"tag-heavy tree",
       "<s><t><u>x</u><u>y</u></t><t><u>z</u></t></s>", 16},
      {"text-heavy",
       "<p>a very long run of prose text with hardly any markup at all "
       "inside of it whatsoever</p>",
       4},
  };
  for (const Case& c : kCases) {
    std::string xml_text;
    for (int i = 0; i < c.repeat; ++i) xml_text += c.xml;
    auto frag = xml::ParseFragment(xml_text);
    if (!frag.ok()) continue;
    std::vector<const xml::Node*> roots;
    for (const auto& child : (*frag)->children()) roots.push_back(child.get());
    const size_t raw_bytes = xadt::EncodeRaw(roots).size();
    const size_t compressed_bytes = xadt::EncodeCompressed(roots).size();
    double saving = 1.0 - static_cast<double>(compressed_bytes) /
                              static_cast<double>(raw_bytes);
    table.AddRow({c.label, std::to_string(raw_bytes),
                  std::to_string(compressed_bytes),
                  benchutil::Fmt(saving * 100, 1) + "%",
                  xadt::CompressionPays(raw_bytes, compressed_bytes)
                      ? "compressed"
                      : "raw"});
  }
  table.Print();
}

}  // namespace
}  // namespace xorator

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  xorator::PrintSizeSweep();
  return 0;
}
