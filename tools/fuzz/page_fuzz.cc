// libFuzzer harness for the on-disk page formats (DESIGN.md section 16).
// The property under test: NO 8 KB byte image may crash the slotted-page
// accessors, the B+-tree node validator, or the WAL header/record parsers,
// and no successful access may hand out a view escaping the page buffer —
// every corrupt image comes back as a clean kCorruption/kNotFound instead.
//
// Input layout: byte 0 picks the decoder (mod 3: slotted page, B+-tree
// node, WAL stream); the rest is the raw image, zero-padded or truncated
// to kPageSize for the page modes and taken verbatim for the WAL mode.
//
// This file builds two targets:
//   * default: `LLVMFuzzerTestOneInput` only, for `clang -fsanitize=fuzzer`
//     (the `page_fuzz` target, see CMakeLists.txt here);
//   * linked with replay_main.cc, whose main() replays the seed corpus
//     deterministically: the `page_fuzz_replay` target, run as the
//     `page_fuzz_corpus` ctest.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "ordb/bptree.h"
#include "ordb/page.h"
#include "ordb/wal.h"

namespace {

using xorator::ordb::kPageSize;
using xorator::ordb::kWalHeaderBytes;
using xorator::ordb::ParseWalHeader;
using xorator::ordb::ParseWalRecordHeader;
using xorator::ordb::SlottedPage;
using xorator::ordb::ValidateBPlusTreeNode;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "page_fuzz: invariant violated: %s\n", what);
    std::abort();
  }
}

void FuzzSlottedPage(std::string& image) {
  SlottedPage page(image.data());
  // Checksum helpers are total over any image.
  const bool crc_ok = xorator::ordb::VerifyPageChecksum(image.data());
  static_cast<void>(crc_ok);
  const uint16_t slots = page.slot_count();
  // Every slot either yields a view inside the image or a clean error;
  // scanning one past slot_count must report NotFound, never read wild.
  for (uint32_t s = 0; s <= slots && s < 1024; ++s) {
    auto rec = page.Get(static_cast<uint16_t>(s));
    if (rec.ok()) {
      const char* lo = rec->data();
      const char* hi = lo + rec->size();
      Check(lo >= image.data() && hi <= image.data() + kPageSize,
            "SlottedPage::Get view escapes the page");
    }
  }
  if (page.initialized()) {
    const size_t free_before = page.FreeSpace();
    Check(free_before <= kPageSize, "FreeSpace exceeds the page size");
    if (page.Fits(11)) {
      auto slot = page.Insert("fuzz-record");
      if (slot.ok()) {
        auto back = page.Get(*slot);
        Check(back.ok() && *back == "fuzz-record",
              "inserted record does not read back");
        Check(page.Delete(*slot).ok(), "deleting a fresh slot failed");
      }
    }
  }
}

void FuzzBPlusTreeNode(const std::string& image) {
  // The validator is the gate every B+-tree fetch passes through; it must
  // classify any image without crashing, and an all-default page (type 0,
  // count 0) must stay acceptable or recovery could not format new nodes.
  Check(ValidateBPlusTreeNode(std::string_view(image.data(), kPageSize))
            .code() != xorator::StatusCode::kInvalidArgument,
        "node validator rejected the size it was given");
}

void FuzzWal(std::string_view bytes) {
  auto header = ParseWalHeader(bytes);
  if (!header.ok()) return;
  // Walk the record stream the way RecoverFromWal does: a bad record
  // header simply ends the walk (torn tail semantics).
  size_t pos = kWalHeaderBytes;
  while (bytes.size() - pos >= xorator::ordb::kWalRecordHeaderBytes) {
    auto rec = ParseWalRecordHeader(bytes.substr(pos));
    if (!rec.ok()) break;
    if (bytes.size() - pos < xorator::ordb::kWalRecordHeaderBytes + kPageSize) {
      break;
    }
    pos += xorator::ordb::kWalRecordHeaderBytes + kPageSize;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 1) return 0;
  const uint8_t mode = data[0] % 3;
  const std::string_view rest(reinterpret_cast<const char*>(data) + 1,
                              size - 1);
  if (mode == 2) {
    FuzzWal(rest);
    return 0;
  }
  std::string image(kPageSize, '\0');
  std::memcpy(image.data(), rest.data(), std::min(rest.size(), kPageSize));
  if (mode == 0) {
    FuzzSlottedPage(image);
  } else {
    FuzzBPlusTreeNode(image);
  }
  return 0;
}
