//===- driver/RunCache.cpp - Memoized run outcomes ----------------------------===//

#include "driver/RunCache.h"

#include "driver/FaultInjector.h"
#include "driver/OutcomeIO.h"
#include "obs/Obs.h"
#include "profdb/Store.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unistd.h>

using namespace pp;
using namespace pp::driver;

RunCache::RunCache(std::string DiskDir) : DiskDir(std::move(DiskDir)) {}

std::string RunCache::diskDirFromEnv() {
  const char *Dir = std::getenv("PP_RUN_CACHE_DIR");
  return Dir ? Dir : "";
}

std::string RunCache::diskPath(const RunKey &Key) const {
  return DiskDir + "/" + Key.fileStem() + ".ppo";
}

OutcomePtr RunCache::lookup(const RunKey &Key) {
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
      auto Outcome = std::make_shared<prof::RunOutcome>();
      DecodeStatus Status = decodeOutcome(Bytes, Key.Fingerprint, *Outcome);
      if (Status == DecodeStatus::Ok) {
        obs::add(obs::Counter::CacheDiskHits);
        std::lock_guard<std::mutex> Lock(Mu);
        ++Counts.DiskHits;
        // Another thread may have raced the file read; first one wins so
        // every consumer shares one object.
        auto [It, Inserted] = Memory.emplace(Key.Fingerprint, Outcome);
        return It->second;
      }
      // The file is unusable whatever the reason (stale version, torn
      // write, bit rot, collision): count it, drop it so the re-executed
      // run can store a fresh copy, and fall through to a miss.
      std::remove(Path.c_str());
      obs::add(obs::Counter::CacheCorruptEvictions);
      std::lock_guard<std::mutex> Lock(Mu);
      ++Counts.DecodeFailures;
      ++Counts.DecodeFailuresBy[static_cast<unsigned>(Status)];
    }
  }

  obs::add(obs::Counter::CacheMisses);
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counts.Misses;
  return nullptr;
}

void RunCache::insert(const RunKey &Key, const OutcomePtr &Outcome) {
  if (!Key.Cacheable || !Outcome)
    return;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Memory.emplace(Key.Fingerprint, Outcome).second)
      return; // already memoized (and, if configured, already on disk)
    ++Counts.Stores;
    obs::add(obs::Counter::CacheStores);
  }

  // Failed runs stay memory-only: persisting them would make a transient
  // failure (an injected fault, a scheduler-synthesised error) permanent
  // for every later process sharing the cache directory.
  if (DiskDir.empty() || !Outcome->Result.Ok)
    return;
  if (FaultInjector::instance().shouldFailCacheWrite()) {
    obs::add(obs::Counter::CacheWriteFailures);
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counts.WriteFailures;
    return;
  }
  // The whole path, mkdir -p style: a nested PP_RUN_CACHE_DIR whose
  // parents do not exist yet must not fail every write. A real failure
  // surfaces below as an unopenable temp file.
  std::string DirError;
  (void)profdb::makeDirs(DiskDir, DirError);
  // Write-to-temp + rename, so concurrent bench processes sharing the
  // cache directory only ever observe complete files.
  std::vector<uint8_t> Bytes = serializeOutcome(*Outcome, Key.Fingerprint);
  std::string Final = diskPath(Key);
  std::string Temp =
      Final + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  bool Written = false;
  {
    std::ofstream File(Temp, std::ios::binary | std::ios::trunc);
    if (File) {
      File.write(reinterpret_cast<const char *>(Bytes.data()),
                 static_cast<std::streamsize>(Bytes.size()));
      Written = File.good();
    }
  }
  if (Written && std::rename(Temp.c_str(), Final.c_str()) == 0)
    return;
  // Cache directory not writable or short write; the memory layer still
  // works, so degrade to uncached-on-disk instead of failing the run.
  std::remove(Temp.c_str());
  obs::add(obs::Counter::CacheWriteFailures);
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counts.WriteFailures;
}

RunCache::Stats RunCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counts;
}
