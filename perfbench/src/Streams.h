//===- perfbench/src/Streams.h - Seeded workload inputs --------*- C++ -*-===//
///
/// \file
/// Each workload's input stream as a pure function of the seed, so the
/// same seed always drives the program with the same inputs and the
/// streams can be tested on their own.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STREAMS_H
#define PERFBENCH_STREAMS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// --- profile-cold ---------------------------------------------------------

/// Program scales an op may draw. Over any ScaleLadderSize consecutive
/// blocks every program runs once at every scale.
inline constexpr int ScaleLadder[] = {1, 2, 4, 8};
inline constexpr size_t ScaleLadderSize = 4;

struct ProfileOp {
  unsigned Program = 0; ///< index into workloads::spec95Suite()
  int Scale = 1;
};

/// Block \p Block of the op stream: each of the \p NumPrograms programs
/// once, in a seeded order, each at a scale from ScaleLadder.
std::vector<ProfileOp> profileBlock(uint64_t Seed, uint64_t Block,
                                    size_t NumPrograms);

/// Whether op \p Op is one of the seeded sample re-checked on the
/// reference interpreter (about one op in ReferenceSampleEvery).
inline constexpr uint64_t ReferenceSampleEvery = 6;
bool referenceSampled(uint64_t Seed, uint64_t Op);

// --- replay-warm ----------------------------------------------------------

/// Submission order of \p NumTickets tickets and merge order of each of
/// \p NumGroups shard groups of \p GroupSize, for replay op \p Op.
struct ReplayOrder {
  std::vector<size_t> Submit;
  std::vector<std::vector<size_t>> Shards;
};
ReplayOrder replayOrder(uint64_t Seed, uint64_t Op, size_t NumTickets,
                        size_t NumGroups, size_t GroupSize);

// --- fleet-ingest ---------------------------------------------------------

/// The profile an upload carries.
enum class Variant : unsigned {
  ContextFlowHw, ///< exact context + flow + HW
  FlowHw,        ///< exact flow + HW
  FlowHwSampled, ///< overflow-sampled flow + HW (the collector is exact)
};
inline constexpr unsigned NumVariants = 3;

/// Damage done to an upload's bytes in flight.
enum class Corruption : unsigned { None, BitFlip, BadMagic };

inline constexpr uint64_t FleetWindows = 4;
/// Zipf exponent of the per-upload program choice.
inline constexpr double FleetZipf = 1.1;
/// Share of uploads corrupted in flight, and of sampled uploads.
inline constexpr double FleetCorruptShare = 0.02;
inline constexpr double FleetSampledShare = 0.03;

struct UploadSpec {
  unsigned Program = 0; ///< Zipf rank = index into spec95Suite()
  Variant V = Variant::ContextFlowHw;
  uint64_t Window = 0;
  Corruption Damage = Corruption::None;
  /// Which payload byte a BitFlip hits (taken modulo the payload size).
  uint64_t FlipAt = 0;
};

/// Upload \p Index of the stream (random access).
UploadSpec fleetUpload(uint64_t Seed, uint64_t Index, size_t NumPrograms);

enum class QueryWhat : unsigned { TopPaths, TopProcs, CctStats };
struct QuerySpec {
  QueryWhat What = QueryWhat::TopPaths;
  uint64_t Window = 0;
};
QuerySpec fleetQuery(uint64_t Seed, uint64_t Index);

/// Milliseconds from a request's due time to its completion (0 when it
/// completed before it was due).
inline double sinceDueMs(uint64_t DueNs, uint64_t DoneNs) {
  return DoneNs > DueNs ? double(DoneNs - DueNs) * 1e-6 : 0.0;
}

/// An open-loop schedule: request I is due at Start + I / Rate, and its
/// latency runs from that due time, not from when it was actually sent,
/// so a stall charges every request it delays.
class OpenLoop {
public:
  OpenLoop(uint64_t StartNs, double RatePerSec)
      : StartNs(StartNs), PeriodNs(1e9 / RatePerSec) {}
  uint64_t due(uint64_t Index) const {
    return StartNs + static_cast<uint64_t>(double(Index) * PeriodNs);
  }
  /// Latency of request \p Index completed at \p DoneNs, ms.
  double latencyMs(uint64_t Index, uint64_t DoneNs) const {
    return sinceDueMs(due(Index), DoneNs);
  }

private:
  uint64_t StartNs;
  double PeriodNs;
};

} // namespace perfbench

#endif // PERFBENCH_STREAMS_H
