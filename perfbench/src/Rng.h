//===- perfbench/src/Rng.h - Seeded input generation -----------*- C++ -*-===//
///
/// \file
/// The deterministic generator every workload draws its inputs from. The
/// same seed always yields the same stream on every platform (SplitMix64,
/// no std:: distributions, whose output is implementation-defined).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RNG_H
#define PERFBENCH_RNG_H

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

class Rng {
public:
  /// A generator for sub-stream \p Stream of \p Seed, independent of how
  /// many values other sub-streams drew.
  Rng(uint64_t Seed, uint64_t Stream)
      : State(Seed ^ (0x9e3779b97f4a7c15ULL * (Stream + 1))) {
    next();
  }

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Uniform in [0, Bound).
  uint64_t below(uint64_t Bound) {
    return Bound ? static_cast<uint64_t>(unit() * double(Bound)) % Bound : 0;
  }

  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

  template <typename T> void shuffle(std::vector<T> &Items) {
    for (size_t Index = Items.size(); Index > 1; --Index)
      std::swap(Items[Index - 1], Items[below(Index)]);
  }

private:
  uint64_t State;
};

/// Cumulative weights of a Zipf(\p Exponent) law over \p N ranks; rank 0
/// is the hottest.
inline std::vector<double> zipfCdf(size_t N, double Exponent) {
  std::vector<double> Cdf(N);
  double Total = 0;
  for (size_t Rank = 0; Rank != N; ++Rank)
    Cdf[Rank] = (Total += 1.0 / std::pow(double(Rank + 1), Exponent));
  for (double &C : Cdf)
    C /= Total;
  return Cdf;
}

/// Draws a rank from \p Cdf.
inline size_t drawRank(Rng &R, const std::vector<double> &Cdf) {
  double U = R.unit();
  for (size_t Rank = 0; Rank != Cdf.size(); ++Rank)
    if (U < Cdf[Rank])
      return Rank;
  return Cdf.size() - 1;
}

} // namespace perfbench

#endif // PERFBENCH_RNG_H
