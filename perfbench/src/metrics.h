// The benchmark's own arithmetic: percentile selection, time slicing, self
// time from nested spans, and per-query normalisation of batched counts. Header-only
// so the benchmark program and its self-test compile the same definitions.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Tail percentiles are reported only when at least this many samples lie
/// beyond them, so one outlier cannot set the figure.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank index of quantile `q` (0 < q <= 1) in a sorted sample of
/// size n: the smallest index whose rank covers a fraction q of the sample.
inline size_t PercentileIndex(size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

/// Samples strictly above the nearest-rank `q` percentile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - PercentileIndex(n, q);
}

/// True when the `q` percentile of n samples has at least
/// kMinSamplesBeyond samples beyond it (p90 needs n >= 100).
inline bool TailSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t i = PercentileIndex(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

/// Index of the slice holding time t when [lo, hi) is cut into `slices`
/// equal slices; times outside the range fall into the first or last.
inline size_t SliceOf(int64_t t, int64_t lo, int64_t hi, size_t slices) {
  if (slices == 0 || hi <= lo || t < lo) return 0;
  const auto i = static_cast<size_t>(
      static_cast<double>(t - lo) / static_cast<double>(hi - lo) *
      static_cast<double>(slices));
  return std::min(i, slices - 1);
}

/// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// A child span tagged with its depth below the operation (1 = endpoint
/// message, 2 = server handler, ...).
struct LeveledInterval {
  Interval interval;
  int level = 1;
};

/// Splits the operation interval [lo, hi) among levels 0..max_level: each
/// instant goes to the deepest level with a span active at that instant
/// (level 0, the operation's own code, when none is). The parts sum to
/// hi - lo exactly, and overlapping spans of one level count as their
/// union — the self time of every layer on the operation's wall clock.
inline std::vector<int64_t> AttributeByDepth(
    int64_t lo, int64_t hi, const std::vector<LeveledInterval>& spans,
    int max_level) {
  std::vector<int64_t> out(static_cast<size_t>(max_level) + 1, 0);
  if (hi <= lo) return out;
  // (time, level, +1/-1); ends sort before starts at the same instant.
  std::vector<std::pair<int64_t, int>> events;
  events.reserve(spans.size() * 2);
  for (const LeveledInterval& s : spans) {
    const int64_t a = std::max(s.interval.start, lo);
    const int64_t b = std::min(s.interval.end, hi);
    if (b <= a || s.level < 1 || s.level > max_level) continue;
    events.push_back({a, s.level});
    events.push_back({b, -s.level});
  }
  std::sort(events.begin(), events.end());
  std::vector<int> active(static_cast<size_t>(max_level) + 1, 0);
  auto deepest = [&]() {
    for (int l = max_level; l >= 1; --l)
      if (active[static_cast<size_t>(l)] > 0) return l;
    return 0;
  };
  int64_t t = lo;
  for (const auto& [time, signed_level] : events) {
    out[static_cast<size_t>(deepest())] += time - t;
    t = time;
    const int level = signed_level < 0 ? -signed_level : signed_level;
    active[static_cast<size_t>(level)] += signed_level < 0 ? -1 : 1;
  }
  out[static_cast<size_t>(deepest())] += hi - t;
  return out;
}

/// One operation's contribution to a per-query figure: a batched call
/// answering `queries` tag queries counts all of them.
struct Batched {
  double count = 0;
  size_t queries = 0;
};

/// Total count over total tag queries — a 16-query batch weighs 16, so
/// batched and single calls normalise to the same unit. 0 with no queries.
inline double PerQuery(const std::vector<Batched>& ops) {
  double count = 0;
  size_t queries = 0;
  for (const Batched& b : ops) {
    count += b.count;
    queries += b.queries;
  }
  return queries == 0 ? 0.0 : count / static_cast<double>(queries);
}

/// Maximum over mean of a set of non-negative loads (1 = perfectly even);
/// 0 for an empty or all-zero set.
inline double Skew(const std::vector<double>& loads) {
  if (loads.empty()) return 0.0;
  double sum = 0;
  double max = 0;
  for (double x : loads) {
    sum += x;
    max = std::max(max, x);
  }
  return sum <= 0 ? 0.0 : max / (sum / static_cast<double>(loads.size()));
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
