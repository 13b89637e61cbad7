//===- driver/RunCache.cpp - Memoized run outcomes ----------------------------===//

#include "driver/RunCache.h"

#include "driver/FaultInjector.h"
#include "obs/Obs.h"
#include "prof/Acquisition.h"
#include "profdb/Store.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace pp;
using namespace pp::driver;

namespace {

/// What a disk entry holds beyond the run's deposit.
profdb::RunSection runSectionOf(const prof::RunOutcome &Outcome) {
  profdb::RunSection Run;
  Run.Ok = Outcome.Result.Ok;
  Run.ExitValue = Outcome.Result.ExitValue;
  Run.Error = Outcome.Result.Error;
  Run.EdgeProfiles = Outcome.EdgeProfiles;
  Run.Instr = Outcome.Instr.Functions;
  Run.Acq = Outcome.Acq;
  return Run;
}

/// Moves a decoded disk entry, which has a run section, into a record.
RecordPtr recordOf(profdb::Artifact &&A) {
  auto Record = std::make_shared<RunRecord>();
  profdb::RunSection &Run = *A.Run;
  Record->Result.Ok = Run.Ok;
  Record->Result.ExitValue = Run.ExitValue;
  Record->Result.ExecutedInsts = A.ExecutedInsts;
  Record->Result.Error = std::move(Run.Error);
  Record->Totals = A.Totals;
  Record->PathProfiles = std::move(A.PathProfiles);
  Record->EdgeProfiles = std::move(Run.EdgeProfiles);
  Record->Instr.Functions = std::move(Run.Instr);
  Record->Tree = std::move(A.Tree);
  Record->Acq = Run.Acq;
  Record->Functions = std::move(A.Functions);
  return Record;
}

} // namespace

profdb::Artifact driver::runArtifact(const RunPlan &Plan, const RunKey &Key,
                                     const RunRecord &Record) {
  return profdb::artifactFromOutcome(
      Record, Record.Functions, Key.Fingerprint, Plan.Workload,
      static_cast<uint64_t>(Plan.Scale), Plan.Options.Config,
      prof::acquisitionName(Plan.Options.Acq.Kind));
}

RunCache::RunCache(std::string DiskDir) : DiskDir(std::move(DiskDir)) {}

std::string RunCache::diskDirFromEnv() {
  const char *Dir = std::getenv("PP_RUN_CACHE_DIR");
  return Dir ? Dir : "";
}

std::string RunCache::diskPath(const RunKey &Key) const {
  return DiskDir + "/" + profdb::artifactFileName(Key.Fingerprint);
}

RecordPtr RunCache::lookup(const RunKey &Key) {
  if (!Key.Cacheable)
    return nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Memory.find(Key.Fingerprint);
    if (It != Memory.end()) {
      ++Counts.MemoryHits;
      obs::add(obs::Counter::CacheMemoryHits);
      return It->second;
    }
  }

  if (!DiskDir.empty()) {
    std::string Path = diskPath(Key);
    std::ifstream File(Path, std::ios::binary);
    if (File) {
      std::vector<uint8_t> Bytes(std::istreambuf_iterator<char>(File), {});
      FaultInjector::instance().mutateCacheRead(Bytes);
      profdb::Artifact Entry;
      profdb::DecodeStatus Status = profdb::decodeArtifact(Bytes, Entry);
      if (Status == profdb::DecodeStatus::Ok && !Entry.Run)
        Status = profdb::DecodeStatus::Malformed; // a deposit, not an entry
      bool Mismatch = Status == profdb::DecodeStatus::Ok &&
                      Entry.Fingerprint != Key.Fingerprint;
      if (Status == profdb::DecodeStatus::Ok && !Mismatch) {
        RecordPtr Record = recordOf(std::move(Entry));
        obs::add(obs::Counter::CacheDiskHits);
        std::lock_guard<std::mutex> Lock(Mu);
        ++Counts.DiskHits;
        // Another thread may have raced the file read; first one wins so
        // every consumer shares one object.
        auto [It, Inserted] = Memory.emplace(Key.Fingerprint, Record);
        return It->second;
      }
      // The file is unusable whatever the reason (stale version, torn
      // write, bit rot, collision): count it, drop it so the re-executed
      // run can store a fresh copy, and fall through to a miss.
      std::remove(Path.c_str());
      obs::add(obs::Counter::CacheCorruptEvictions);
      std::lock_guard<std::mutex> Lock(Mu);
      ++Counts.DecodeFailures;
      if (Mismatch)
        ++Counts.FingerprintMismatches;
      else
        ++Counts.DecodeFailuresBy[static_cast<unsigned>(Status)];
    }
  }

  obs::add(obs::Counter::CacheMisses);
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counts.Misses;
  return nullptr;
}

void RunCache::insert(const RunPlan &Plan, const RunKey &Key,
                      const RecordPtr &Record) {
  if (!Key.Cacheable || !Record)
    return;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Memory.emplace(Key.Fingerprint, Record).second)
      return; // already memoized (and, if configured, already on disk)
    ++Counts.Stores;
    obs::add(obs::Counter::CacheStores);
  }

  // Failed runs stay memory-only: persisting them would make a transient
  // failure (an injected fault, a scheduler-synthesised error) permanent
  // for every later process sharing the cache directory.
  if (DiskDir.empty() || !Record->Result.Ok)
    return;
  // writeArtifactFile creates the whole directory path (a nested
  // PP_RUN_CACHE_DIR need not exist yet) and writes to a temp file
  // renamed into place, so concurrent bench processes sharing the cache
  // directory only ever observe complete files.
  profdb::Artifact Entry = runArtifact(Plan, Key, *Record);
  Entry.Run = runSectionOf(*Record);
  std::string Error;
  if (!FaultInjector::instance().shouldFailCacheWrite() &&
      profdb::writeArtifactFile(diskPath(Key), Entry, Error))
    return;
  // Cache directory not writable, short write, or an injected fault; the
  // memory layer still works, so degrade to uncached-on-disk instead of
  // failing the run.
  obs::add(obs::Counter::CacheWriteFailures);
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counts.WriteFailures;
}

RunCache::Stats RunCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counts;
}
