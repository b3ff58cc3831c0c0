// Self-test of the benchmark's arithmetic (src/metrics.h). run.py runs it
// after every build and refuses to measure when it fails.
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // n..1, deliberately unsorted
}

void TestPercentiles() {
  Expect(Percentile(Ramp(100), 0.5) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(Ramp(100), 0.9) == 90, "p90 of 1..100 is 90");
  Expect(Percentile(Ramp(10), 0.9) == 9, "p90 of 1..10 is 9");
  Expect(Percentile(Ramp(1), 0.9) == 1, "p90 of one sample is that sample");
  Expect(Percentile({}, 0.5) == 0, "empty sample gives 0");
  Expect(Percentile(Ramp(101), 0.5) == 51, "p50 of 1..101 is 51");
  // The >= 10 samples beyond rule: p90 needs 100 samples.
  Expect(SamplesBeyond(100, 0.9) == 10, "10 samples beyond p90 of 100");
  Expect(TailSupported(100, 0.9), "p90 supported at n = 100");
  Expect(!TailSupported(99, 0.9), "p90 unsupported at n = 99");
  Expect(SamplesBeyond(99, 0.9) == 9, "9 samples beyond p90 of 99");
  Expect(TailSupported(1000, 0.99), "p99 supported at n = 1000");
  Expect(!TailSupported(999, 0.99), "p99 unsupported at n = 999");
  Expect(SamplesBeyond(0, 0.9) == 0, "no samples, none beyond");
  Expect(SliceOf(0, 0, 60, 6) == 0 && SliceOf(9, 0, 60, 6) == 0,
         "first slice is [0, 10)");
  Expect(SliceOf(10, 0, 60, 6) == 1, "slice boundaries belong to the next");
  Expect(SliceOf(60, 0, 60, 6) == 5 && SliceOf(99, 0, 60, 6) == 5,
         "times past the end fall into the last slice");
  Expect(SliceOf(-5, 0, 60, 6) == 0, "times before the start, the first");
}

void TestSelfTime() {
  // Op [0, 100) with messages [10, 30) and [20, 50): their union (40) is
  // message time, the rest (60) the op's own.
  std::vector<int64_t> parts =
      AttributeByDepth(0, 100, {{{10, 30}, 1}, {{20, 50}, 1}}, 2);
  Expect(parts[0] == 60 && parts[1] == 40 && parts[2] == 0,
         "overlapping children count once");
  parts = AttributeByDepth(0, 100, {{{-10, 20}, 1}, {{90, 130}, 1}}, 2);
  Expect(parts[0] == 70 && parts[1] == 30,
         "children are clipped to the operation");
  parts = AttributeByDepth(0, 100, {{{0, 10}, 1}, {{10, 20}, 1}}, 2);
  Expect(parts[0] == 80 && parts[1] == 20, "touching children join");
  Expect(AttributeByDepth(0, 100, {}, 2)[0] == 100, "no children: all self");

  // Op [0, 100): endpoint [10, 60) holding handler [20, 40); a second
  // endpoint [50, 80) (pipelined) holding nothing.
  const std::vector<LeveledInterval> spans = {
      {{10, 60}, 1}, {{20, 40}, 2}, {{50, 80}, 1}};
  parts = AttributeByDepth(0, 100, spans, 2);
  Expect(parts.size() == 3, "three levels");
  Expect(parts[0] == 30, "client self = op minus union of messages");
  Expect(parts[1] == 50, "message self = in flight, no handler running");
  Expect(parts[2] == 20, "handler self");
  Expect(parts[0] + parts[1] + parts[2] == 100, "levels sum to the op");

  // A handler on a server thread overlapping two messages of other servers.
  const std::vector<int64_t> tcp =
      AttributeByDepth(0, 10, {{{0, 6}, 1}, {{2, 8}, 1}, {{3, 5}, 2}}, 2);
  Expect(tcp[0] == 2 && tcp[1] == 6 && tcp[2] == 2,
         "parallel messages count as their union");
}

void TestPerQuery() {
  // One 16-query batch costing 320 evaluations and one single query
  // costing 4: 324 evaluations over 17 queries.
  Expect(PerQuery({{320, 16}, {4, 1}}) == 324.0 / 17.0,
         "a batch weighs its query count");
  Expect(PerQuery({{160, 16}}) == 10, "16-query batch normalises per query");
  Expect(PerQuery({}) == 0, "no queries gives 0");
  Expect(Skew({1, 1, 1, 1}) == 1, "even load has skew 1");
  Expect(Skew({4, 0, 0, 0}) == 4, "all load on one of four is skew 4");
  Expect(Skew({}) == 0, "no load has skew 0");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestSelfTime();
  perfbench::TestPerQuery();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d metric self-test(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "metric self-test passed\n");
  return 0;
}
