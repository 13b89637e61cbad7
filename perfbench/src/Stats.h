//===- perfbench/src/Stats.h - Sample statistics ---------------*- C++ -*-===//
///
/// \file
/// Order statistics for the benchmark's latency and per-call samples:
/// nearest-rank percentiles, the median, and the tail rule every latency
/// report follows — report the highest percentile that still has at least
/// ten samples beyond it, together with the sample count.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr size_t MinTailSamples = 10;

/// Nearest-rank rank (1-based) of percentile \p P over \p N samples.
inline size_t nearestRank(double P, size_t N) {
  // The tolerance keeps products such as 99.9% of 10000 (9990.000000002
  // in binary) from rounding up a rank.
  size_t Rank = static_cast<size_t>(std::ceil(P * double(N) / 100.0 - 1e-9));
  return std::clamp<size_t>(Rank, 1, N);
}

/// Nearest-rank percentile \p P (0-100) of \p Samples; 0 when empty.
inline double percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  size_t Rank = nearestRank(P, Samples.size());
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

inline double median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 50);
}

/// A tail report: the percentile chosen, its value, the sample count and
/// how many samples lie beyond its rank.
struct Tail {
  double Percentile = 0;
  double Value = 0;
  size_t Count = 0;
  size_t Beyond = 0;
  /// False when even p90 lacks MinTailSamples beyond it.
  bool Valid = false;
};

/// The highest of p90, p99, p99.9 and p99.99 that has at least
/// MinTailSamples samples beyond its nearest rank.
inline Tail tailPercentile(const std::vector<double> &Samples) {
  Tail Out;
  Out.Count = Samples.size();
  for (double P : {90.0, 99.0, 99.9, 99.99}) {
    if (Samples.empty())
      break;
    size_t Beyond = Samples.size() - nearestRank(P, Samples.size());
    if (Beyond < MinTailSamples)
      break;
    Out.Percentile = P;
    Out.Beyond = Beyond;
    Out.Valid = true;
  }
  if (Out.Valid)
    Out.Value = percentile(Samples, Out.Percentile);
  return Out;
}

inline double sum(const std::vector<double> &Samples) {
  double Total = 0;
  for (double S : Samples)
    Total += S;
  return Total;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
