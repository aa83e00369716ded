// Percentile summaries with their sample counts.
//
// A timing is reported as its median and its 99th percentile together
// with the number of samples and how many lie beyond p99.  A p99 with
// fewer than kMinTail samples beyond it rests on a handful of requests
// and is marked unresolved.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

constexpr size_t kMinTail = 10;

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least fraction `q` of the samples at or below it.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * double(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct Summary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  /// Samples strictly greater than p99.
  size_t beyond_p99 = 0;
  /// beyond_p99 >= kMinTail.
  bool p99_resolved = false;
};

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 0.50);
  s.p99 = NearestRank(samples, 0.99);
  s.beyond_p99 = static_cast<size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), s.p99));
  s.p99_resolved = s.beyond_p99 >= kMinTail;
  return s;
}

inline double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

/// Samples tagged with when they happened (seconds into their phase).
struct TimedSamples {
  std::vector<double> at;
  std::vector<double> value;

  void Add(double at_s, double v) {
    at.push_back(at_s);
    value.push_back(v);
  }
  void Append(const TimedSamples& o) {
    at.insert(at.end(), o.at.begin(), o.at.end());
    value.insert(value.end(), o.value.begin(), o.value.end());
  }
  size_t size() const { return value.size(); }
};

/// Samples needed per window before a phase is split into windows.
constexpr size_t kWindowSamples = 500;
constexpr size_t kMaxWindows = 16;

/// Windows a phase with `samples` samples is split into: one per
/// kWindowSamples, 1 to kMaxWindows.
inline size_t WindowCount(size_t samples) {
  return std::clamp<size_t>(samples / kWindowSamples, 1, kMaxWindows);
}

/// The median over WindowCount equal time windows of [0, span_s) of each
/// window's percentile `q`.  A burst of interference from outside the
/// program spoils a few windows, not the figure.  Windows holding no
/// sample are skipped.
inline double WindowedPercentile(const TimedSamples& s, double span_s, double q) {
  const size_t windows = WindowCount(s.size());
  std::vector<std::vector<double>> bins(windows);
  for (size_t i = 0; i < s.size(); ++i) {
    size_t w = static_cast<size_t>(s.at[i] / span_s * double(windows));
    bins[std::min(w, windows - 1)].push_back(s.value[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& b : bins) {
    if (b.empty()) continue;
    std::sort(b.begin(), b.end());
    per_window.push_back(NearestRank(b, q));
  }
  return Median(per_window);
}

/// The median over `windows` equal time windows of [0, span_s) of the
/// per-window rate: the sum of the samples' values in a window divided by
/// the window's length.
inline double WindowedRate(const TimedSamples& s, double span_s, size_t windows) {
  std::vector<double> sums(windows, 0.0);
  for (size_t i = 0; i < s.size(); ++i) {
    if (s.at[i] < 0 || s.at[i] >= span_s) continue;
    sums[static_cast<size_t>(s.at[i] / span_s * double(windows))] += s.value[i];
  }
  for (double& v : sums) v /= span_s / double(windows);
  return Median(sums);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
