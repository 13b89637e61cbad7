//===- driver/RunCache.h - Memoized run outcomes ---------------*- C++ -*-===//
///
/// \file
/// Two-level memoization of run records keyed by RunKey: an in-process
/// table shared by every consumer in a binary, and an optional on-disk
/// layer (one file per run, atomic writes) that lets consecutive bench
/// binaries reuse each other's runs — measurement once, reporting many
/// times, in the gprof tradition of persisting profile data for many
/// consumers. Thread-safe.
///
/// A disk entry is the run's profile artifact with a run section
/// (profdb/Artifact.h), named profdb::artifactFileName(fingerprint): the
/// cache and the profile repository share one format and one decoder.
/// The disk layer trusts nothing it reads: a file that fails to decode,
/// names another fingerprint, or has no run section is counted by
/// reason, deleted, and treated as a miss — the run simply re-executes
/// and the next store rewrites the file. Failed writes (permissions, disk
/// full, injected faults) likewise degrade to memory-only caching instead
/// of erroring.
///
//===----------------------------------------------------------------------===//

#ifndef PP_DRIVER_RUNCACHE_H
#define PP_DRIVER_RUNCACHE_H

#include "driver/RunKey.h"
#include "driver/RunPlan.h"
#include "profdb/Artifact.h"

#include <array>
#include <mutex>
#include <string>
#include <unordered_map>

namespace pp {
namespace driver {

class RunCache {
public:
  /// \p DiskDir enables the on-disk layer when non-empty; the directory is
  /// created on first store.
  explicit RunCache(std::string DiskDir = std::string());

  /// Reads $PP_RUN_CACHE_DIR; empty means memory-only caching.
  static std::string diskDirFromEnv();

  /// Returns the memoized record for \p Key, consulting memory first and
  /// then disk (a disk hit is promoted into memory). Null on miss, for
  /// uncacheable keys, and for disk files that fail to decode — those are
  /// counted per reason, removed, and re-executed by the caller.
  RecordPtr lookup(const RunKey &Key);

  /// Memoizes \p Record, the run \p Plan declares, under \p Key in both
  /// layers. No-op for uncacheable keys; failed runs (Result.Ok == false)
  /// are memoized in memory only, never persisted.
  void insert(const RunPlan &Plan, const RunKey &Key,
              const RecordPtr &Record);

  bool hasDiskLayer() const { return !DiskDir.empty(); }

  struct Stats {
    uint64_t MemoryHits = 0;
    uint64_t DiskHits = 0;
    uint64_t Misses = 0;
    uint64_t Stores = 0;
    /// Disk files rejected (and removed), total and by reason: the
    /// decoder's status (an artifact without a run section counts as
    /// malformed), or a well-formed entry of another fingerprint.
    uint64_t DecodeFailures = 0;
    std::array<uint64_t, profdb::NumDecodeStatuses> DecodeFailuresBy{};
    uint64_t FingerprintMismatches = 0;
    /// Disk writes that could not complete (unwritable directory, short
    /// write, injected fault); the memory layer still holds the outcome.
    uint64_t WriteFailures = 0;
  };
  Stats stats() const;

private:
  std::string diskPath(const RunKey &Key) const;

  mutable std::mutex Mu;
  std::unordered_map<std::string, RecordPtr> Memory;
  std::string DiskDir;
  Stats Counts;
};

/// \p Record as the profile artifact of the run \p Plan declares, \p Key
/// its fingerprint, without a run section: what a PP_PROFILE_OUT deposit
/// holds, byte for byte the same whether the record was just executed or
/// served from either cache layer.
profdb::Artifact runArtifact(const RunPlan &Plan, const RunKey &Key,
                             const RunRecord &Record);

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_RUNCACHE_H
