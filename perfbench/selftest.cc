// Tests of the benchmark's own arithmetic (trace.h): self time with nested
// and overlapping children, the "ten samples beyond" percentile rule, and
// the answer digest. Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {
namespace {

int g_failed = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cc:%d: FAILED %s\n", line, what);
    ++g_failed;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void TestUnionLength() {
  EXPECT(UnionLength({}, 0, 100) == 0);
  EXPECT(UnionLength({{10, 20}, {30, 40}}, 0, 100) == 20);
  // Overlapping and contained intervals count once.
  EXPECT(UnionLength({{10, 30}, {20, 40}, {25, 26}}, 0, 100) == 30);
  // Clipped to the parent's interval.
  EXPECT(UnionLength({{-5, 10}, {90, 120}}, 0, 100) == 20);
}

void TestSelfTimeNested() {
  Tracer t;
  const int64_t root = t.Add("statement", -1, 1, 0, 100);
  const int64_t plan = t.Add("planner.plan", root, 1, 10, 40);
  t.Add("inner", plan, 1, 15, 25);  // grandchild: only plan loses it
  t.Add("executor.next", root, 1, 50, 90);
  auto self = SelfNsByName(t.spans(), 0, t.size());
  EXPECT(self["statement"] == 100 - 30 - 40);
  EXPECT(self["planner.plan"] == 30 - 10);
  EXPECT(self["inner"] == 10);
  EXPECT(self["executor.next"] == 40);
}

void TestSelfTimeOverlappingChildren() {
  Tracer t;
  const int64_t root = t.Add("statement", -1, 7, 0, 100);
  t.Add("a", root, 7, 10, 60);
  t.Add("b", root, 7, 40, 80);  // overlaps a by 20
  t.Add("c", root, 7, 95, 130);  // runs past the parent's end
  auto self = SelfNsByName(t.spans(), 0, t.size());
  // Covered: [10, 80) and [95, 100) = 75.
  EXPECT(self["statement"] == 25);
  EXPECT(self["a"] == 50 && self["b"] == 40 && self["c"] == 35);
}

void TestSelfTimeRangeAndSameNames() {
  Tracer t;
  t.Add("statement", -1, 1, 0, 10);  // outside the range below
  const int64_t root = t.Add("statement", -1, 2, 100, 200);
  t.Add("sql.parse", root, 2, 100, 110);
  t.Add("sql.parse", root, 2, 150, 170);
  auto self = SelfNsByName(t.spans(), 1, t.size());
  EXPECT(self["statement"] == 70);
  EXPECT(self["sql.parse"] == 30);  // same-named spans sum
}

void TestTailPercentile() {
  EXPECT(SamplesForTail(0.99) == 1000);
  EXPECT(SamplesForTail(0.50) == 20);
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  // 999 samples leave only 9 beyond the nearest-rank p99 (rank 990).
  EXPECT(!TailPercentile(v, 0.99).has_value());
  v.push_back(1000);
  auto p99 = TailPercentile(v, 0.99);
  EXPECT(p99.has_value() && *p99 == 990);
  EXPECT(*TailPercentile(v, 0.50) == 500);
  EXPECT(!TailPercentile({}, 0.5).has_value());
  EXPECT(!TailPercentile({1, 2, 3}, 0.5).has_value());
  EXPECT(*TailPercentile({1, 2, 3}, 0.5, 1) == 2);
  EXPECT(Median({3, 1, 2}) == 2 && Median({4, 1, 2, 3}) == 2.5);
}

std::string Digest(const std::vector<std::vector<std::string>>& rows) {
  RowDigest d;
  for (const auto& r : rows) d.AddRow(r);
  return d.Hex();
}

void TestDigest() {
  const std::string abc = Digest({{"a", "1"}, {"b", "2"}, {"c", "3"}});
  EXPECT(abc == Digest({{"c", "3"}, {"a", "1"}, {"b", "2"}}));
  // Duplicates count.
  EXPECT(abc != Digest({{"a", "1"}, {"b", "2"}, {"c", "3"}, {"c", "3"}}));
  EXPECT(Digest({{"x"}, {"x"}}) != Digest({{"x"}}));
  EXPECT(Digest({{"x"}, {"x"}}) != Digest({}));
  // Same row count, different multiplicities: a digest that XORed row
  // hashes would cancel the pairs and call these equal.
  EXPECT(Digest({{"a"}, {"a"}}) != Digest({{"b"}, {"b"}}));
  EXPECT(Digest({{"a"}, {"a"}, {"b"}}) != Digest({{"a"}, {"b"}, {"b"}}));
  // Cell boundaries and column order count.
  EXPECT(Digest({{"ab", "c"}}) != Digest({{"a", "bc"}}));
  EXPECT(Digest({{"1", "a"}}) != Digest({{"a", "1"}}));
  EXPECT(Digest({{"", ""}}) != Digest({{""}}));
  EXPECT(Digest({}).rfind("0:", 0) == 0);
  EXPECT(abc.rfind("3:", 0) == 0);
}

void TestJson() {
  EXPECT(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"");
  EXPECT(std::stod(JsonNumber(0.1)) == 0.1);
  EXPECT(JsonNumber(NAN) == "null");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestUnionLength();
  perfbench::TestSelfTimeNested();
  perfbench::TestSelfTimeOverlappingChildren();
  perfbench::TestSelfTimeRangeAndSameNames();
  perfbench::TestTailPercentile();
  perfbench::TestDigest();
  perfbench::TestJson();
  if (perfbench::g_failed != 0) return 1;
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
