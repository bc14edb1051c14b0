#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t request) {
  const int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

int64_t Tracer::Add(const char* name, int64_t parent, uint64_t request,
                    int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t covered_to = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, covered_to);
    end = std::min(end, hi);
    if (end > start) {
      total += end - start;
      covered_to = end;
    }
  }
  return total;
}

std::map<std::string, double> SelfNsByName(const std::vector<Span>& spans,
                                           size_t begin, size_t end) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(end - begin);
  for (size_t i = begin; i < end; ++i) {
    const int64_t p = spans[i].parent;
    if (p >= static_cast<int64_t>(begin) && p < static_cast<int64_t>(end)) {
      children[static_cast<size_t>(p) - begin].emplace_back(spans[i].start_ns,
                                                            spans[i].end_ns);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = begin; i < end; ++i) {
    const Span& s = spans[i];
    const int64_t covered =
        UnionLength(std::move(children[i - begin]), s.start_ns, s.end_ns);
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

namespace {

// 1-based nearest rank of quantile q among n samples.
size_t NearestRank(double q, size_t n) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

std::optional<double> TailPercentile(const std::vector<double>& sorted,
                                     double q, size_t min_beyond) {
  if (sorted.empty()) return std::nullopt;
  const size_t rank = NearestRank(q, sorted.size());
  if (sorted.size() - rank < min_beyond) return std::nullopt;
  return sorted[rank - 1];
}

size_t SamplesForTail(double q, size_t min_beyond) {
  size_t n = min_beyond + 1;
  while (n - NearestRank(q, n) < min_beyond) ++n;
  return n;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

namespace {

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

void RowDigest::AddRow(const std::vector<std::string>& cells) {
  uint64_t h1 = 0xcbf29ce484222325ull;
  uint64_t h2 = 0x84222325cbf29ce4ull;
  for (const std::string& cell : cells) {
    const std::string len = std::to_string(cell.size()) + ":";
    h1 = Fnv1a(Fnv1a(h1, len), cell);
    h2 = Mix64(Fnv1a(Fnv1a(h2 ^ 0x9e3779b97f4a7c15ull, cell), len));
  }
  ++rows_;
  sum1_ += Mix64(h1);
  sum2_ += Mix64(h2 + cells.size());
}

std::string RowDigest::Hex() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%llu:%016llx%016llx",
                static_cast<unsigned long long>(rows_),
                static_cast<unsigned long long>(sum1_),
                static_cast<unsigned long long>(sum2_));
  return buf;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
