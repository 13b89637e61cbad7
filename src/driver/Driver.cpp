//===- driver/Driver.cpp - The experiment-driver facade -----------------------===//

#include "driver/Driver.h"

#include "support/Env.h"

#include <cstdio>
#include <cstdlib>

using namespace pp;
using namespace pp::driver;

Driver::~Driver() {
  if (!envFlag("PP_DRIVER_STATS", "pp-driver"))
    return;
  RunCache::Stats C = Cache.stats();
  std::fprintf(stderr,
               "pp-driver: %zu tickets, %llu runs executed on %u threads; "
               "cache: %llu memory hits, %llu disk hits, %llu misses, "
               "%llu stores%s\n",
               Scheduler.numTickets(),
               static_cast<unsigned long long>(Scheduler.runsExecuted()),
               Scheduler.numThreads(),
               static_cast<unsigned long long>(C.MemoryHits),
               static_cast<unsigned long long>(C.DiskHits),
               static_cast<unsigned long long>(C.Misses),
               static_cast<unsigned long long>(C.Stores),
               Cache.hasDiskLayer() ? " (disk layer on)" : "");
  // Error accounting only when something actually went wrong, so the
  // healthy-path stats line stays one line.
  uint64_t Failed = Scheduler.runsFailed();
  if (Failed || C.DecodeFailures || C.WriteFailures) {
    std::fprintf(stderr,
                 "pp-driver: errors: %llu runs failed, %llu cache files "
                 "rejected, %llu cache writes failed",
                 static_cast<unsigned long long>(Failed),
                 static_cast<unsigned long long>(C.DecodeFailures),
                 static_cast<unsigned long long>(C.WriteFailures));
    for (unsigned Status = 0; Status != profdb::NumDecodeStatuses; ++Status)
      if (C.DecodeFailuresBy[Status])
        std::fprintf(stderr, "; %s: %llu",
                     profdb::decodeStatusName(
                         static_cast<profdb::DecodeStatus>(Status)),
                     static_cast<unsigned long long>(
                         C.DecodeFailuresBy[Status]));
    if (C.FingerprintMismatches)
      std::fprintf(stderr, "; fingerprint-mismatch: %llu",
                   static_cast<unsigned long long>(C.FingerprintMismatches));
    std::fprintf(stderr, "\n");
  }
}

Driver &pp::driver::defaultDriver() {
  static Driver Instance;
  return Instance;
}
