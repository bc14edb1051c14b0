// Deterministic corpus replay for the fuzz harnesses in this directory.
// Every `<name>_replay` target (see CMakeLists.txt here) links one harness's
// `LLVMFuzzerTestOneInput` with this main(), which feeds it each file named
// on the command line, or every file under a named directory in sorted
// order. The `<name>_corpus` ctests run it over the checked-in seeds, so
// they execute under every sanitizer configuration without a fuzzing
// engine.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

int ReplayFile(const char* prog, const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read %s\n", prog, path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string prog =
      std::filesystem::path(argc > 0 ? argv[0] : "fuzz_replay")
          .filename()
          .string();
  size_t replayed = 0;
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    std::filesystem::path arg(argv[i]);
    if (std::filesystem::is_directory(arg)) {
      // Sort for a deterministic replay order across platforms.
      std::vector<std::filesystem::path> files;
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(arg)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());
      for (const auto& f : files) {
        failures += ReplayFile(prog.c_str(), f);
        ++replayed;
      }
    } else {
      failures += ReplayFile(prog.c_str(), arg);
      ++replayed;
    }
  }
  if (replayed == 0) {
    std::fprintf(stderr, "usage: %s <corpus-dir-or-file>...\n", prog.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: replayed %zu corpus input(s)\n", prog.c_str(),
               replayed);
  return failures == 0 ? 0 : 1;
}
