// Sample statistics and the metric list the benchmark prints.

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / double(v.size());
}

/// The highest whole percentile of `n` samples that leaves at least ten
/// samples above it (nearest-rank); 0 when n < 40, where no percentile
/// is a tail.
inline int TailPercentile(size_t n) {
  if (n < 40) return 0;
  for (int p = 99; p > 50; --p) {
    const size_t rank = size_t(std::ceil(double(p) / 100.0 * double(n)));
    if (n - rank >= 10) return p;
  }
  return 50;
}

/// Nearest-rank percentile.
inline double Percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(double(p) / 100.0 * double(v.size())));
  rank = std::max<size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

/// The tail of a long sample: the run is cut into `blocks` consecutive
/// blocks of equal size, each block's tail percentile is taken, and the
/// median of those is returned, so that one burst of host noise moves
/// at most one block. Samples too few for blocks of 40 fall back to the
/// plain tail percentile. `pct` receives the per-block percentile.
inline double BlockTail(const std::vector<double>& v, size_t blocks,
                        int* pct) {
  if (v.size() < 40 * blocks) {
    *pct = TailPercentile(v.size());
    return Percentile(v, *pct);
  }
  const size_t per = v.size() / blocks;
  *pct = TailPercentile(per);
  std::vector<double> tails;
  for (size_t b = 0; b < blocks; ++b) {
    tails.push_back(Percentile(
        std::vector<double>(v.begin() + long(b * per),
                            v.begin() + long((b + 1) * per)),
        *pct));
  }
  return Median(tails);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

inline double Value(const Metrics& m, const std::string& name) {
  for (const Metric& x : m) {
    if (x.name == name) return x.value;
  }
  return 0.0;
}

inline void Add(Metrics* m, std::string name, double value,
                std::string unit) {
  m->push_back({std::move(name), value, std::move(unit)});
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
