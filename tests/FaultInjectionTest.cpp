//===- tests/FaultInjectionTest.cpp - driver hardening under faults -------------===//
//
// The hardening contract, proven by injection: no corruption of a cache
// file — bit flips, truncations, or adversarial stomps with a fixed-up
// checksum — may crash the decoder or be served as a cached result; a
// corrupt file on disk degrades to a re-execution that reproduces the
// clean outcome; a failed cache write degrades to memory-only caching;
// and a run failed mid-suite yields one structured error outcome while
// every other submitted run completes untouched.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/FaultInjector.h"
#include "profdb/Artifact.h"
#include "profdb/Store.h"
#include "support/Checksum.h"
#include "workloads/Spec.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pp;
using namespace pp::driver;

namespace {

RunPlan makePlan(const std::string &Workload, prof::Mode M) {
  RunPlan Plan;
  Plan.Workload = Workload;
  Plan.Options.Config.M = M;
  return Plan;
}

std::string makeTempDir() {
  char Template[] = "/tmp/pp-fault-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  EXPECT_NE(Dir, nullptr);
  return Dir ? Dir : "";
}

void removeDir(const std::string &Dir) {
  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

/// Number of .ppa files in \p Dir (the on-disk cache population).
size_t countCacheFiles(const std::string &Dir) {
  std::string Cmd = "ls " + Dir + "/*.ppa 2>/dev/null | wc -l";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return 0;
  unsigned long Count = 0;
  if (std::fscanf(Pipe, "%lu", &Count) != 1)
    Count = 0;
  pclose(Pipe);
  return Count;
}

/// Disarms the process-wide injector when a test ends, so one test's
/// fault configuration can never leak into the next.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().configure({}); }
};

/// The disk entry a run cache writes for \p Plan: its artifact with a
/// run section.
std::vector<uint8_t> cacheEntryBytes(const RunPlan &Plan) {
  std::string Dir = makeTempDir();
  {
    Driver Writer(Dir, /*Threads=*/1);
    OutcomePtr Run = Writer.run(Plan);
    EXPECT_TRUE(Run && Run->Result.Ok);
  }
  std::ifstream File(
      Dir + "/" + profdb::artifactFileName(RunKey::of(Plan).Fingerprint),
      std::ios::binary);
  std::vector<uint8_t> Bytes(std::istreambuf_iterator<char>(File), {});
  removeDir(Dir);
  return Bytes;
}

/// The consumer-visible core of an outcome: a degraded-then-recovered run
/// must reproduce exactly what the clean run produced.
void expectSameMeasurement(const prof::RunOutcome &A,
                           const prof::RunOutcome &B) {
  EXPECT_EQ(A.Result.Ok, B.Result.Ok);
  EXPECT_EQ(A.Result.ExitValue, B.Result.ExitValue);
  EXPECT_EQ(A.Result.ExecutedInsts, B.Result.ExecutedInsts);
  EXPECT_EQ(A.Totals, B.Totals);
}

//===----------------------------------------------------------------------===//
// Decoder corruption sweep
//===----------------------------------------------------------------------===//

TEST(FaultSweepTest, NoCorruptionCrashesOrIsAccepted) {
  const std::vector<uint8_t> Bytes =
      cacheEntryBytes(makePlan("130.li", prof::Mode::ContextFlow));
  ASSERT_GT(Bytes.size(), 16u);
  {
    profdb::Artifact Out;
    ASSERT_EQ(profdb::decodeArtifact(Bytes, Out), profdb::DecodeStatus::Ok);
    ASSERT_TRUE(Out.Run.has_value());
  }

  unsigned Corruptions = 0;

  // Sweep A: single-bit flips across the whole file, checksum left
  // stale. CRC32 detects every single-bit error, so each one must be
  // rejected — never crash, never decode.
  constexpr unsigned NumFlips = 160;
  for (unsigned I = 0; I != NumFlips; ++I) {
    std::vector<uint8_t> Flipped = Bytes;
    size_t Offset = size_t(I) * Flipped.size() / NumFlips;
    Flipped[Offset] ^= uint8_t(1) << (I % 8);
    profdb::Artifact Out;
    profdb::DecodeStatus Status = profdb::decodeArtifact(Flipped, Out);
    EXPECT_NE(Status, profdb::DecodeStatus::Ok)
        << "accepted a bit flip at offset " << Offset;
    ++Corruptions;
  }

  // Sweep B: truncations at every scale, from the empty file to one
  // missing byte.
  constexpr unsigned NumCuts = 60;
  for (unsigned I = 0; I != NumCuts; ++I) {
    size_t Cut = size_t(I) * Bytes.size() / NumCuts;
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    profdb::Artifact Out;
    profdb::DecodeStatus Status = profdb::decodeArtifact(Truncated, Out);
    EXPECT_NE(Status, profdb::DecodeStatus::Ok)
        << "accepted " << Cut << " bytes";
    ++Corruptions;
  }

  // Sweep C: stomp 8-byte windows with 0xFF and *recompute* the
  // checksum trailer, deliberately defeating the CRC gate so every
  // interior length/count check gets exercised with the worst value a
  // field can hold (e.g. a string length of ~2^64). The decoder must
  // bound-check its way to a typed rejection — or, when the stomp only
  // hit metric payload, decode cleanly — without ever reading out of
  // bounds or attempting a pathological allocation. (ASan-built runs of
  // this test check the "no out-of-bounds" half mechanically.)
  constexpr unsigned NumStomps = 100;
  for (unsigned I = 0; I != NumStomps; ++I) {
    std::vector<uint8_t> Stomped = Bytes;
    size_t Limit = Stomped.size() - 4; // keep the trailer's 4 bytes
    size_t Offset = size_t(I) * Limit / NumStomps;
    for (size_t B = Offset; B != std::min(Offset + 8, Limit); ++B)
      Stomped[B] = 0xFF;
    uint32_t Crc = crc32(Stomped.data(), Stomped.size() - 4);
    for (unsigned B = 0; B != 4; ++B)
      Stomped[Stomped.size() - 4 + B] = uint8_t(Crc >> (8 * B));
    profdb::Artifact Out;
    profdb::DecodeStatus Status = profdb::decodeArtifact(Stomped, Out);
    EXPECT_NE(Status, profdb::DecodeStatus::BadChecksum)
        << "trailer fixup failed at offset " << Offset;
    ++Corruptions;
  }

  EXPECT_GE(Corruptions, 200u);
}

// The same three-sweep harness, pointed at the profile repository's
// artifact decoder: artifacts are durable, travel between machines, and
// are therefore just as untrusted as cache files.
TEST(FaultSweepTest, NoArtifactCorruptionCrashesOrIsAccepted) {
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  RunPlan Plan = makePlan("130.li", prof::Mode::ContextFlowHw);
  OutcomePtr Run = D.run(Plan);
  ASSERT_TRUE(Run && Run->Result.Ok);

  auto Module = workloads::buildWorkload("130.li", 1);
  ASSERT_NE(Module, nullptr);
  profdb::Artifact A = profdb::artifactFromOutcome(
      *Run, *Module, "fault-fp", "130.li", 1, Plan.Options.Config);
  const std::vector<uint8_t> Bytes = profdb::encodeArtifact(A);
  ASSERT_GT(Bytes.size(), 16u);
  {
    profdb::Artifact Out;
    ASSERT_EQ(profdb::decodeArtifact(Bytes, Out), profdb::DecodeStatus::Ok);
  }

  // Sweep A: single-bit flips with a stale checksum — CRC32 catches every
  // one of them.
  constexpr unsigned NumFlips = 160;
  for (unsigned I = 0; I != NumFlips; ++I) {
    std::vector<uint8_t> Flipped = Bytes;
    size_t Offset = size_t(I) * Flipped.size() / NumFlips;
    Flipped[Offset] ^= uint8_t(1) << (I % 8);
    profdb::Artifact Out;
    profdb::DecodeStatus Status = profdb::decodeArtifact(Flipped, Out);
    EXPECT_NE(Status, profdb::DecodeStatus::Ok)
        << "accepted a bit flip at offset " << Offset;
  }

  // Sweep B: truncations at every scale.
  constexpr unsigned NumCuts = 60;
  for (unsigned I = 0; I != NumCuts; ++I) {
    size_t Cut = size_t(I) * Bytes.size() / NumCuts;
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    profdb::Artifact Out;
    EXPECT_NE(profdb::decodeArtifact(Truncated, Out),
              profdb::DecodeStatus::Ok)
        << "accepted " << Cut << " bytes";
  }

  // Sweep C: 0xFF stomps with a recomputed trailer, defeating the CRC so
  // the interior bounds checks face worst-case field values. Typed
  // rejection or a clean decode of stomped metric payload — never a
  // crash, never BadChecksum (the trailer is valid by construction).
  constexpr unsigned NumStomps = 100;
  for (unsigned I = 0; I != NumStomps; ++I) {
    std::vector<uint8_t> Stomped = Bytes;
    size_t Limit = Stomped.size() - 4;
    size_t Offset = size_t(I) * Limit / NumStomps;
    for (size_t B = Offset; B != std::min(Offset + 8, Limit); ++B)
      Stomped[B] = 0xFF;
    uint32_t Crc = crc32(Stomped.data(), Stomped.size() - 4);
    for (unsigned B = 0; B != 4; ++B)
      Stomped[Stomped.size() - 4 + B] = uint8_t(Crc >> (8 * B));
    profdb::Artifact Out;
    EXPECT_NE(profdb::decodeArtifact(Stomped, Out),
              profdb::DecodeStatus::BadChecksum)
        << "trailer fixup failed at offset " << Offset;
  }

  // Trailing garbage after a valid payload is its own typed status.
  {
    std::vector<uint8_t> Extended = Bytes;
    std::vector<uint8_t> Payload(Bytes.begin(), Bytes.end() - 4);
    Payload.push_back(0xAB);
    uint32_t Crc = crc32(Payload.data(), Payload.size());
    Extended = Payload;
    for (unsigned B = 0; B != 4; ++B)
      Extended.push_back(uint8_t(Crc >> (8 * B)));
    profdb::Artifact Out;
    EXPECT_EQ(profdb::decodeArtifact(Extended, Out),
              profdb::DecodeStatus::TrailingBytes);
  }
}

TEST(FaultSweepTest, ArtifactFileReadFoldsIoIntoStatus) {
  // A directory path and a missing path both fold into Unreadable rather
  // than a crash or a zero-length "success".
  profdb::Artifact Out;
  EXPECT_EQ(profdb::readArtifactFile("/tmp", Out),
            profdb::DecodeStatus::Unreadable);
  EXPECT_EQ(profdb::readArtifactFile("/tmp/pp-no-such-artifact.ppa", Out),
            profdb::DecodeStatus::Unreadable);
}

TEST(FaultSweepTest, StaleWriterTempsAreSweptOnListing) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  auto Touch = [&](const std::string &Name) {
    std::ofstream Out(Dir + "/" + Name, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(Out.is_open());
    Out << "partial";
  };
  // Backdates a temp's mtime so the age-gated sweep sees it as \p Age old.
  auto SetAge = [&](const std::string &Name, time_t Age) {
    struct timeval Times[2];
    Times[0].tv_sec = Times[1].tv_sec = ::time(nullptr) - Age;
    Times[0].tv_usec = Times[1].tv_usec = 0;
    ASSERT_EQ(::utimes((Dir + "/" + Name).c_str(), Times), 0);
  };
  auto Exists = [&](const std::string &Name) {
    return ::access((Dir + "/" + Name).c_str(), F_OK) == 0;
  };

  // A writer that died between open and rename: a child that exits
  // immediately gives us a pid guaranteed dead once waitpid returns.
  pid_t Dead = fork();
  ASSERT_GE(Dead, 0);
  if (Dead == 0)
    _exit(0);
  ASSERT_EQ(waitpid(Dead, nullptr, 0), Dead);

  // Dead writer, past the grace period: the canonical orphan.
  std::string DeadOld = "ppa-00000000deadbeef.ppa.tmp." + std::to_string(Dead);
  Touch(DeadOld);
  SetAge(DeadOld, profdb::StaleTempGraceSeconds + 60);
  // Dead-probing writer, younger than the grace period: on a shared
  // filesystem this is what a *live* writer on another host looks like,
  // so the sweep must not touch it.
  std::string DeadFresh =
      "ppa-00000000feedface.ppa.tmp." + std::to_string(Dead);
  Touch(DeadFresh);
  // Live writer (us), past grace but under the hard limit: kept.
  std::string LiveOld =
      "ppa-00000000cafef00d.ppa.tmp." + std::to_string(getpid());
  Touch(LiveOld);
  SetAge(LiveOld, profdb::StaleTempGraceSeconds + 60);
  // "Live" pid but ancient: no writer holds a temp open this long, so the
  // pid must have been recycled by an unrelated process — swept.
  std::string LiveAncient =
      "ppa-00000000ba5eba11.ppa.tmp." + std::to_string(getpid());
  Touch(LiveAncient);
  SetAge(LiveAncient, profdb::StaleTempHardSeconds + 60);
  // A name that merely looks temp-ish survives any sweep.
  Touch("ppa-0000000012345678.ppa.tmp.notapid");

  // Listing a repository sweeps the orphans and only the orphans.
  std::vector<std::string> Files = profdb::listArtifactFiles(Dir);
  EXPECT_TRUE(Files.empty()); // temps never list as artifacts
  EXPECT_FALSE(Exists(DeadOld));
  EXPECT_FALSE(Exists(LiveAncient));
  EXPECT_TRUE(Exists(DeadFresh));
  EXPECT_TRUE(Exists(LiveOld));
  EXPECT_TRUE(Exists("ppa-0000000012345678.ppa.tmp.notapid"));

  // A second sweep finds nothing left to do.
  EXPECT_EQ(profdb::sweepStaleTemps(Dir), 0u);

  removeDir(Dir);
}

TEST(FaultSweepTest, StaleVersionReportsBadVersion) {
  std::vector<uint8_t> Bytes =
      cacheEntryBytes(makePlan("130.li", prof::Mode::Flow));
  ASSERT_GT(Bytes.size(), 16u);
  // A version this build never wrote, without the trailer its writer
  // might not have had: the version gate must fire before the checksum
  // is even consulted.
  Bytes[8] = 0;
  Bytes.resize(Bytes.size() - 4);
  profdb::Artifact Out;
  EXPECT_EQ(profdb::decodeArtifact(Bytes, Out),
            profdb::DecodeStatus::BadVersion);
}

//===----------------------------------------------------------------------===//
// Disk-layer degradation, end to end
//===----------------------------------------------------------------------===//

TEST(FaultDiskTest, CorruptFileOnDiskFallsBackToReexecution) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  OutcomePtr Clean;
  {
    Driver Writer(Dir, /*Threads=*/1);
    Clean = Writer.run(makePlan("124.m88ksim", prof::Mode::FlowHw));
    ASSERT_TRUE(Clean && Clean->Result.Ok);
  }
  ASSERT_EQ(countCacheFiles(Dir), 1u);

  // Flip one byte in the middle of the file on disk.
  std::string Cmd = "ls " + Dir + "/*.ppa";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  ASSERT_NE(Pipe, nullptr);
  char PathBuf[256] = {};
  ASSERT_NE(std::fgets(PathBuf, sizeof(PathBuf), Pipe), nullptr);
  pclose(Pipe);
  std::string Path(PathBuf);
  while (!Path.empty() && (Path.back() == '\n' || Path.back() == ' '))
    Path.pop_back();
  {
    std::fstream File(Path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(File.is_open());
    File.seekp(200);
    char Byte = 0x5A;
    File.write(&Byte, 1);
  }

  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Recovered =
      Reader.run(makePlan("124.m88ksim", prof::Mode::FlowHw));
  ASSERT_TRUE(Recovered && Recovered->Result.Ok);
  // The corrupt file was rejected (with a typed reason), removed, and the
  // run re-executed to the clean measurement.
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 1u);
  RunCache::Stats Stats = Reader.cache().stats();
  EXPECT_EQ(Stats.DiskHits, 0u);
  EXPECT_EQ(Stats.DecodeFailures, 1u);
  expectSameMeasurement(*Clean, *Recovered);

  // The store after re-execution healed the file: a third driver hits.
  ASSERT_EQ(countCacheFiles(Dir), 1u);
  Driver Healed(Dir, /*Threads=*/1);
  OutcomePtr FromDisk =
      Healed.run(makePlan("124.m88ksim", prof::Mode::FlowHw));
  ASSERT_TRUE(FromDisk && FromDisk->Result.Ok);
  EXPECT_EQ(Healed.scheduler().runsExecuted(), 0u);
  EXPECT_EQ(Healed.cache().stats().DiskHits, 1u);

  removeDir(Dir);
}

TEST(FaultDiskTest, InjectedReadCorruptionDegradesToReexecution) {
  InjectorGuard Guard;
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  OutcomePtr Clean;
  {
    Driver Writer(Dir, /*Threads=*/1);
    Clean = Writer.run(makePlan("130.li", prof::Mode::Flow));
    ASSERT_TRUE(Clean && Clean->Result.Ok);
  }

  FaultInjector::Config C;
  C.Seed = 42;
  C.FlipEveryNthRead = 1;
  FaultInjector::instance().configure(C);

  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Recovered = Reader.run(makePlan("130.li", prof::Mode::Flow));
  ASSERT_TRUE(Recovered && Recovered->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 1u);
  EXPECT_EQ(Reader.cache().stats().DecodeFailures, 1u);
  EXPECT_EQ(FaultInjector::instance().counts().ReadsCorrupted, 1u);
  expectSameMeasurement(*Clean, *Recovered);

  removeDir(Dir);
}

TEST(FaultDiskTest, InjectedTruncationDegradesToReexecution) {
  InjectorGuard Guard;
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  {
    Driver Writer(Dir, /*Threads=*/1);
    OutcomePtr Clean = Writer.run(makePlan("130.li", prof::Mode::Flow));
    ASSERT_TRUE(Clean && Clean->Result.Ok);
  }

  FaultInjector::Config C;
  C.Seed = 7;
  C.TruncateEveryNthRead = 1;
  FaultInjector::instance().configure(C);

  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Recovered = Reader.run(makePlan("130.li", prof::Mode::Flow));
  ASSERT_TRUE(Recovered && Recovered->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 1u);
  EXPECT_EQ(Reader.cache().stats().DecodeFailures, 1u);

  removeDir(Dir);
}

TEST(FaultDiskTest, InjectedWriteFailureKeepsMemoryLayer) {
  InjectorGuard Guard;
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  FaultInjector::Config C;
  C.FailEveryNthWrite = 1;
  FaultInjector::instance().configure(C);

  Driver D(Dir, /*Threads=*/1);
  OutcomePtr First = D.run(makePlan("130.li", prof::Mode::Flow));
  ASSERT_TRUE(First && First->Result.Ok);
  EXPECT_EQ(D.cache().stats().WriteFailures, 1u);
  EXPECT_EQ(countCacheFiles(Dir), 0u);

  // The memory layer is intact: the repeat is the same object, no rerun.
  OutcomePtr Second = D.run(makePlan("130.li", prof::Mode::Flow));
  EXPECT_EQ(First.get(), Second.get());
  EXPECT_EQ(D.scheduler().runsExecuted(), 1u);

  removeDir(Dir);
}

//===----------------------------------------------------------------------===//
// Run-failure isolation
//===----------------------------------------------------------------------===//

TEST(FaultRunTest, MidSuiteFailureLeavesOtherRowsIntact) {
  InjectorGuard Guard;
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  FaultInjector::Config C;
  C.FailEveryNthRun = 1;
  C.FailRunMatching = "130.li";
  FaultInjector::instance().configure(C);

  Driver D(Dir, /*Threads=*/2);
  const char *Suite[] = {"124.m88ksim", "130.li", "107.mgrid"};
  std::vector<size_t> Tickets;
  for (const char *Workload : Suite)
    Tickets.push_back(D.submit(makePlan(Workload, prof::Mode::FlowHw)));

  OutcomePtr M88k = D.get(Tickets[0]);
  OutcomePtr Li = D.get(Tickets[1]);
  OutcomePtr Mgrid = D.get(Tickets[2]);

  // The matched run failed structurally; its neighbours are untouched.
  ASSERT_TRUE(Li);
  EXPECT_FALSE(Li->Result.Ok);
  EXPECT_NE(Li->Result.Error.find("injected fault"), std::string::npos);
  ASSERT_TRUE(M88k && Mgrid);
  EXPECT_TRUE(M88k->Result.Ok);
  EXPECT_TRUE(Mgrid->Result.Ok);
  EXPECT_EQ(D.scheduler().runsFailed(), 1u);
  EXPECT_EQ(D.scheduler().runsExecuted(), 2u);

  // Only the successful runs were persisted; the failure is not made
  // permanent for later processes.
  EXPECT_EQ(countCacheFiles(Dir), 2u);

  // A fresh driver with the fault disarmed re-executes the failed run
  // and gets the real measurement.
  FaultInjector::instance().configure({});
  Driver Retry(Dir, /*Threads=*/1);
  OutcomePtr LiRetry = Retry.run(makePlan("130.li", prof::Mode::FlowHw));
  ASSERT_TRUE(LiRetry && LiRetry->Result.Ok);
  EXPECT_EQ(Retry.scheduler().runsExecuted(), 1u);

  removeDir(Dir);
}

TEST(FaultRunTest, EveryNthRunFailsOnCadence) {
  InjectorGuard Guard;
  FaultInjector::Config C;
  C.FailEveryNthRun = 3;
  FaultInjector::instance().configure(C);

  // Serial driver: the cadence is deterministic in submission order.
  Driver D(/*DiskDir=*/"", /*Threads=*/0);
  const char *Suite[] = {"124.m88ksim", "130.li", "107.mgrid",
                         "129.compress", "134.perl", "102.swim"};
  unsigned Ok = 0, FailedRuns = 0;
  for (const char *Workload : Suite) {
    OutcomePtr Run = D.run(makePlan(Workload, prof::Mode::None));
    ASSERT_TRUE(Run);
    if (Run->Result.Ok)
      ++Ok;
    else
      ++FailedRuns;
  }
  EXPECT_EQ(FailedRuns, 2u);
  EXPECT_EQ(Ok, 4u);
  EXPECT_EQ(D.scheduler().runsFailed(), 2u);
  EXPECT_EQ(FaultInjector::instance().counts().RunsFailed, 2u);
}

TEST(FaultRunTest, UnknownWorkloadIsAStructuredFailure) {
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  OutcomePtr Bad = D.run(makePlan("999.no-such-benchmark", prof::Mode::None));
  ASSERT_TRUE(Bad);
  EXPECT_FALSE(Bad->Result.Ok);
  EXPECT_NE(Bad->Result.Error.find("unknown workload"), std::string::npos);
  EXPECT_EQ(D.scheduler().runsFailed(), 1u);

  // The driver is still fully usable afterwards.
  OutcomePtr Good = D.run(makePlan("130.li", prof::Mode::None));
  ASSERT_TRUE(Good && Good->Result.Ok);
}

//===----------------------------------------------------------------------===//
// The injector itself
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, SameSeedSameFaults) {
  FaultInjector::Config C;
  C.Seed = 1234;
  C.FlipEveryNthRead = 2;
  C.TruncateEveryNthRead = 5;

  auto Replay = [&C] {
    FaultInjector Injector(C);
    std::vector<std::vector<uint8_t>> Mutations;
    for (unsigned I = 0; I != 20; ++I) {
      std::vector<uint8_t> Bytes(257, uint8_t(I));
      Injector.mutateCacheRead(Bytes);
      Mutations.push_back(std::move(Bytes));
    }
    return Mutations;
  };
  EXPECT_EQ(Replay(), Replay());
}

TEST(FaultInjectorTest, EnvConfigRejectsNonNumericCounts) {
  setenv("PP_FAULT_READ_FLIP", "banana", 1);
  setenv("PP_FAULT_WRITE_FAIL", "3", 1);
  setenv("PP_FAULT_SEED", "99", 1);
  FaultInjector::Config C = FaultInjector::configFromEnv();
  EXPECT_EQ(C.FlipEveryNthRead, 0u);
  EXPECT_EQ(C.FailEveryNthWrite, 3u);
  EXPECT_EQ(C.Seed, 99u);
  unsetenv("PP_FAULT_READ_FLIP");
  unsetenv("PP_FAULT_WRITE_FAIL");
  unsetenv("PP_FAULT_SEED");
}

} // namespace
