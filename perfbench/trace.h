// The benchmark's own arithmetic: spans and their self times, the tail
// percentile rule, medians, and the order-insensitive answer digest.
//
// Nothing here depends on the xorator library, so perfbench_selftest can
// check it without building a database.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval at a layer boundary. `parent` is the index of the
/// span that caused it (-1 for a root); spans of one statement share
/// `request`. `name` must be a string literal.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// An in-memory span log for one thread. Spans are addressed by their
/// index, which is also how children name their parent.
class Tracer {
 public:
  int64_t Begin(const char* name, int64_t parent, uint64_t request);
  void End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  /// Records an interval measured by the caller.
  int64_t Add(const char* name, int64_t parent, uint64_t request,
              int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Times its own scope as a span; does nothing when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
             uint64_t request)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Length of the union of the half-open `intervals`, clipped to [lo, hi).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi);

/// Sums, per span name, the self time (duration minus the union of the
/// direct children's intervals) of spans[begin, end). Children outside
/// that range are ignored, so call it on whole statements or passes.
std::map<std::string, double> SelfNsByName(const std::vector<Span>& spans,
                                           size_t begin, size_t end);

/// Nearest-rank percentile of ascending `sorted` at `q` in (0, 1]. Empty
/// unless at least `min_beyond` samples rank after the chosen one, so a
/// reported tail always has that many samples beyond it.
std::optional<double> TailPercentile(const std::vector<double>& sorted,
                                     double q, size_t min_beyond = 10);

/// Samples needed before TailPercentile(q, min_beyond) has a value.
size_t SamplesForTail(double q, size_t min_beyond = 10);

/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);

/// Order-insensitive, duplicate-sensitive digest of a multiset of rows:
/// each row is hashed twice (cells length-prefixed, so cell boundaries
/// count) and the hashes are summed modulo 2^64.
class RowDigest {
 public:
  void AddRow(const std::vector<std::string>& cells);
  /// "<rows>:<sum1><sum2>" in hex.
  std::string Hex() const;

 private:
  uint64_t rows_ = 0;
  uint64_t sum1_ = 0;
  uint64_t sum2_ = 0;
};

/// A JSON number with every digit of a double.
std::string JsonNumber(double value);

/// `text` as a quoted, escaped JSON string.
std::string JsonString(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
