//===- perfbench/src/Bench.h - Workload interface --------------*- C++ -*-===//
///
/// \file
/// What every workload receives and returns. A workload sets itself up,
/// runs its operations for the requested time, checks every output
/// against an independent reference outside the timed region, and reports
/// its metrics by name and unit.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory the workload may create files under.
  std::string WorkDir;
  /// Cores this process may run on; threads plus connections stay within.
  unsigned Cores = 1;
  /// fleet-ingest phase-B open-loop rates (requests per second).
  double UploadRate = 0;
  double QueryRate = 0;
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// How many times set-up runs; setup_s is the median.
inline constexpr unsigned SetupRepeats = 3;

struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first few failure descriptions.
  std::vector<std::string> Failures;
  /// With Trace off: the end-to-end metrics. With Trace on: per-layer.
  std::map<std::string, Metric> Metrics;
  /// Workload-specific figures kept in the result record only.
  std::map<std::string, Metric> Detail;
  /// Set-up durations of each repeat, seconds.
  std::vector<double> SetupSeconds;

  /// Records one failed op (count it once per op).
  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 16)
      Failures.push_back(Why);
  }
  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  void detail(const std::string &Name, double Value, const char *Unit) {
    Detail[Name] = Metric{Value, Unit};
  }
};

/// Adds the per-layer figures every traced workload reports: self-time
/// totals per layer, the unattributed share and the tracing overhead.
void reportAttribution(Result &R, const Attribution &A,
                       double TraceOverheadFrac);

/// Median self time of the spans keyed \p Key ("name" or "name@tag"),
/// scaled from ns by \p Scale; 0 when none were recorded.
double medianSelf(const Attribution &A, const std::string &Key,
                  double Scale);

Result runProfileCold(const Options &O, Tracer &T);
Result runReplayWarm(const Options &O, Tracer &T);
Result runFleetIngest(const Options &O, Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
