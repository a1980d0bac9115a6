// Statistics over raw nanosecond samples. Every percentile the benchmark
// reports comes from here, never from a bucketed histogram: a bucket about
// 6% wide lets a median jump a whole bucket between otherwise equal runs.
#ifndef IMCI_PERFBENCH_STATS_H_
#define IMCI_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Exact nearest-rank percentile (`p` in [0,100]) of raw samples: the
/// smallest sample with at least p% of all samples at or below it. Returns
/// 0 for an empty set.
inline uint64_t Percentile(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// The highest of the usual tail percentiles (90, 99, 99.9, 99.99) that
/// leaves at least ten samples beyond it; 50 when even p90 has fewer.
/// Reporting a tail no sample set supports is reporting its maximum.
inline double SupportedTail(size_t n) {
  double best = 50;
  for (double p : {90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) best = p;
  }
  return best;
}

/// Geometric mean of one percentile `p` (50: the medians) of several sample
/// sets (one per query type), so that every query weighs the same however
/// long it runs. Sets without samples are skipped; 0 when none has any.
inline double GmeanOfPercentiles(const std::vector<std::vector<uint64_t>>& sets,
                                 double p) {
  double log_sum = 0;
  int k = 0;
  for (const auto& s : sets) {
    if (s.empty()) continue;
    const uint64_t m = Percentile(s, p);
    log_sum += std::log(static_cast<double>(std::max<uint64_t>(m, 1)));
    ++k;
  }
  return k == 0 ? 0 : std::exp(log_sum / k);
}

/// All samples of several sets in one.
inline std::vector<uint64_t> Concat(
    const std::vector<std::vector<uint64_t>>& sets) {
  std::vector<uint64_t> all;
  for (const auto& s : sets) all.insert(all.end(), s.begin(), s.end());
  return all;
}

/// Failed operations against the number attempted.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double failure_share() const {
    return attempted == 0 ? 0 : static_cast<double>(failed) / attempted;
  }
};

inline double NsToMs(double ns) { return ns / 1e6; }

}  // namespace perfbench

#endif  // IMCI_PERFBENCH_STATS_H_
