// libFuzzer harness for the XML parser (hostile-input hardening,
// DESIGN.md section 12). The property under test: NO byte sequence may
// crash, overflow the stack, or allocate without bound — every input
// either parses or comes back as a clean kParseError.
//
// This file builds two targets:
//   * default: `LLVMFuzzerTestOneInput` only, for `clang -fsanitize=fuzzer`
//     (the `parser_fuzz` target, see CMakeLists.txt here);
//   * linked with replay_main.cc, whose main() replays the seed corpus
//     deterministically: the `parser_fuzz_replay` target, run as the
//     `parser_fuzz_corpus` ctest.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace {

// Tight limits keep individual fuzz iterations fast and make the limit
// checks themselves part of the fuzzed surface.
xorator::xml::ParseOptions FuzzOptions() {
  xorator::xml::ParseOptions options;
  options.limits.max_depth = 64;
  options.limits.max_token_bytes = 1u << 16;
  options.limits.max_input_bytes = 1u << 20;
  return options;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);
  const xorator::xml::ParseOptions options = FuzzOptions();
  auto doc = xorator::xml::ParseDocument(input, options);
  if (doc.ok()) {
    // A successful parse must serialize, and the serialization must parse
    // again — a cheap structural invariant on whatever DOM was built.
    std::string out = xorator::xml::Serialize(*doc->root);
    auto again = xorator::xml::ParseDocument(out, options);
    XO_DISCARD_STATUS(std::move(again),
                      "round-trip output may legitimately exceed the limits");
  }
  XO_DISCARD_STATUS(xorator::xml::ParseFragment(input, options),
                    "fuzz input; errors expected");
  return 0;
}
