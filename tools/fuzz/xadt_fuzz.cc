// libFuzzer harness for the XADT methods (src/xadt/xadt.h; DESIGN.md
// sections 12 and 14). The properties under test:
//   * NO byte sequence may crash a method or allocate without bound: every
//     call runs under a bound statement guard whose memory budget caps
//     what the methods materialize, so a hostile value comes back as a
//     clean error (parse, corruption, or kResourceExhausted), never a
//     runaway allocation;
//   * wherever Unnest succeeds, each fragment's text equals TextContent of
//     its own value: the one-pass text matches a re-scan of the slice;
//   * wherever both succeed, getElmIndex on the fragment roots (empty
//     parentElm), which stops at its last position, renders the same XML
//     as the root `childElm` fragments of Unnest(value, "") at those
//     positions.
//
// Input layout: byte 0 picks the element-name arguments from kNames — bits
// 0-1 the tag / rootElm / childElm, bits 2-3 the searchElm / parentElm —
// bits 4-6 the level / end-position argument and bit 7 the start position
// (1 or 2); the rest is the XADT value.
//
// The seed corpus (corpus_xadt/) was written with the library's encoders
// (EncodeRaw, EncodeCompressed) and then cut or patched by hand: raw and
// compressed values, a value truncated inside its dictionary, a bad token
// opcode, and nested same-tag elements. The two directory_* seeds hold
// values with the retired 'D' (fragment directory) marker, which every
// method must reject as an unknown representation.
//
// This file builds two targets:
//   * default: `LLVMFuzzerTestOneInput` only, for `clang -fsanitize=fuzzer`
//     (the `xadt_fuzz` target, see CMakeLists.txt here);
//   * linked with replay_main.cc, whose main() replays the seed corpus
//     deterministically: the `xadt_fuzz_replay` target, run as the
//     `xadt_fuzz_corpus` ctest.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "ordb/query_guard.h"
#include "xadt/scanner.h"
#include "xadt/xadt.h"

namespace {

namespace xadt = xorator::xadt;
using xorator::ordb::QueryGuard;
using xorator::ordb::ScopedGuardBind;

// Cap on what one method call may materialize. Far above any value the
// fuzzer builds at its usual max_len, far below an allocation that would
// trip the fuzzer's RSS limit.
constexpr uint64_t kBudgetBytes = 1u << 20;

constexpr std::string_view kNames[] = {"", "a", "b", "LINE"};

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "xadt_fuzz: invariant violated: %s\n", what);
    std::abort();
  }
}

// Element name of a single-element value's root ("" if it has none).
std::string RootName(std::string_view value) {
  auto scanner = xadt::FragmentScanner::Create(value);
  if (!scanner.ok()) return "";
  auto event = scanner->Next();
  if (!event.ok() || event->kind != xadt::FragmentScanner::EventKind::kStart) {
    return "";
  }
  return std::string(event->name);
}

// The getElmIndex property, run under the caller's guard. Any error here
// (including a budget stop while rendering) ends the check unasserted.
void CheckOrderAccess(const std::string& value, std::string_view child,
                      int start, int end) {
  auto by_index = xadt::GetElmIndex(value, "", child, start, end);
  auto roots = xadt::Unnest(value, "");
  if (!by_index.ok() || !roots.ok()) {
    by_index.status().IgnoreError();
    roots.status().IgnoreError();
    return;
  }
  auto got = xadt::ToXmlString(*by_index);
  if (!got.ok()) return;
  std::string want;
  int position = 0;
  for (const xadt::UnnestedFragment& root : *roots) {
    if (RootName(root.value) != child) continue;
    ++position;
    if (position < start || position > end) continue;
    auto xml = xadt::ToXmlString(root.value);
    if (!xml.ok()) return;
    want += *xml;
  }
  Check(*got == want,
        "getElmIndex on the roots differs from unnest at those positions");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 1) return 0;
  const uint8_t selector = data[0];
  const std::string value(reinterpret_cast<const char*>(data) + 1, size - 1);
  const std::string_view first = kNames[selector & 3];
  const std::string_view second = kNames[(selector >> 2) & 3];
  const int number = (selector >> 4) & 7;
  const int start = 1 + (selector >> 7);

  std::vector<xadt::UnnestedFragment> fragments;
  {
    QueryGuard guard(/*deadline_millis=*/0, kBudgetBytes);
    ScopedGuardBind bind(&guard);
    // Only "no crash, bounded" is asserted here: each status is noise.
    XO_DISCARD_STATUS(xadt::Decode(value), "fuzz input; errors expected");
    XO_DISCARD_STATUS(xadt::ToXmlString(value), "fuzz input; errors expected");
    XO_DISCARD_STATUS(xadt::TextContent(value), "fuzz input; errors expected");
    XO_DISCARD_STATUS(xadt::GetElm(value, first, second, "b", number),
                      "fuzz input; errors expected");
    XO_DISCARD_STATUS(xadt::FindKeyInElm(value, second, "b"),
                      "fuzz input; errors expected");
    XO_DISCARD_STATUS(xadt::GetElmIndex(value, second, first, 1, number),
                      "fuzz input; errors expected");
    auto unnested = xadt::Unnest(value, first);
    if (unnested.ok()) fragments = std::move(unnested).value();
    CheckOrderAccess(value, first, start, number);
  }
  // Outside the guard: a fragment's text is no longer than its value, so
  // the re-scan is bounded by what the guarded call already produced.
  for (const xadt::UnnestedFragment& fragment : fragments) {
    auto rescanned = xadt::TextContent(fragment.value);
    Check(rescanned.ok(), "an unnested fragment does not re-scan");
    Check(*rescanned == fragment.text,
          "unnest text differs from TextContent of its fragment");
  }
  return 0;
}
