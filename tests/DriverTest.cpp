//===- tests/DriverTest.cpp - experiment-driver layer tests --------------------===//
//
// The driver layer's contract: a cached outcome is bitwise the outcome of
// a fresh run (totals, path profiles, edge profiles, CCT), parallel
// execution produces exactly the serial results, duplicate submissions
// fold onto one execution, and the on-disk cache round-trips outcomes
// across driver instances.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "profdb/Store.h"
#include "workloads/Spec.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace pp;
using namespace pp::driver;

namespace {

RunPlan makePlan(const std::string &Workload, prof::Mode M, int Scale = 1) {
  RunPlan Plan;
  Plan.Workload = Workload;
  Plan.Scale = Scale;
  Plan.Options.Config.M = M;
  return Plan;
}

void expectTreesEqual(const cct::CallingContextTree &A,
                      const cct::CallingContextTree &B) {
  cct::TreeImage IA = A.image(), IB = B.image();
  ASSERT_EQ(IA.Records.size(), IB.Records.size());
  EXPECT_EQ(IA.Procs.size(), IB.Procs.size());
  EXPECT_EQ(IA.NumMetrics, IB.NumMetrics);
  EXPECT_EQ(IA.PathCellBytes, IB.PathCellBytes);
  EXPECT_EQ(IA.HashThreshold, IB.HashThreshold);
  EXPECT_EQ(IA.HeapBytes, IB.HeapBytes);
  EXPECT_EQ(IA.ListCells, IB.ListCells);
  for (size_t R = 0; R != IA.Records.size(); ++R) {
    const cct::TreeImage::Record &RA = IA.Records[R];
    const cct::TreeImage::Record &RB = IB.Records[R];
    EXPECT_EQ(RA.Proc, RB.Proc) << "record " << R;
    EXPECT_EQ(RA.Parent, RB.Parent) << "record " << R;
    EXPECT_EQ(RA.Addr, RB.Addr) << "record " << R;
    EXPECT_EQ(RA.PathTableAddr, RB.PathTableAddr) << "record " << R;
    EXPECT_EQ(RA.Metrics, RB.Metrics) << "record " << R;
    ASSERT_EQ(RA.PathCells.size(), RB.PathCells.size()) << "record " << R;
    for (size_t C = 0; C != RA.PathCells.size(); ++C) {
      EXPECT_EQ(RA.PathCells[C].first, RB.PathCells[C].first);
      EXPECT_EQ(RA.PathCells[C].second.Freq, RB.PathCells[C].second.Freq);
      EXPECT_EQ(RA.PathCells[C].second.Metric0,
                RB.PathCells[C].second.Metric0);
      EXPECT_EQ(RA.PathCells[C].second.Metric1,
                RB.PathCells[C].second.Metric1);
    }
    ASSERT_EQ(RA.Slots.size(), RB.Slots.size()) << "record " << R;
    for (size_t S = 0; S != RA.Slots.size(); ++S) {
      EXPECT_EQ(RA.Slots[S].Kind, RB.Slots[S].Kind);
      EXPECT_EQ(RA.Slots[S].Targets, RB.Slots[S].Targets);
    }
  }
}

/// Bitwise equality of everything a consumer can read from an outcome
/// (the instrumented module itself is deliberately not part of the
/// contract — disk-restored outcomes do not carry one).
void expectOutcomesEqual(const prof::RunOutcome &A,
                         const prof::RunOutcome &B) {
  EXPECT_EQ(A.Result.Ok, B.Result.Ok);
  EXPECT_EQ(A.Result.ExitValue, B.Result.ExitValue);
  EXPECT_EQ(A.Result.ExecutedInsts, B.Result.ExecutedInsts);
  EXPECT_EQ(A.Totals, B.Totals);

  ASSERT_EQ(A.PathProfiles.size(), B.PathProfiles.size());
  for (size_t F = 0; F != A.PathProfiles.size(); ++F) {
    const prof::FunctionPathProfile &PA = A.PathProfiles[F];
    const prof::FunctionPathProfile &PB = B.PathProfiles[F];
    EXPECT_EQ(PA.FuncId, PB.FuncId);
    EXPECT_EQ(PA.HasProfile, PB.HasProfile);
    EXPECT_EQ(PA.NumPaths, PB.NumPaths);
    EXPECT_EQ(PA.Hashed, PB.Hashed);
    ASSERT_EQ(PA.Paths.size(), PB.Paths.size()) << "function " << F;
    for (size_t P = 0; P != PA.Paths.size(); ++P) {
      EXPECT_EQ(PA.Paths[P].PathSum, PB.Paths[P].PathSum);
      EXPECT_EQ(PA.Paths[P].Freq, PB.Paths[P].Freq);
      EXPECT_EQ(PA.Paths[P].Metric0, PB.Paths[P].Metric0);
      EXPECT_EQ(PA.Paths[P].Metric1, PB.Paths[P].Metric1);
    }
  }

  ASSERT_EQ(A.EdgeProfiles.size(), B.EdgeProfiles.size());
  for (size_t F = 0; F != A.EdgeProfiles.size(); ++F) {
    EXPECT_EQ(A.EdgeProfiles[F].FuncId, B.EdgeProfiles[F].FuncId);
    EXPECT_EQ(A.EdgeProfiles[F].HasProfile, B.EdgeProfiles[F].HasProfile);
    EXPECT_EQ(A.EdgeProfiles[F].EdgeCounts, B.EdgeProfiles[F].EdgeCounts);
    EXPECT_EQ(A.EdgeProfiles[F].Invocations, B.EdgeProfiles[F].Invocations);
  }

  ASSERT_EQ(A.Instr.Functions.size(), B.Instr.Functions.size());
  for (size_t F = 0; F != A.Instr.Functions.size(); ++F)
    EXPECT_EQ(A.Instr.Functions[F].HasPathProfile,
              B.Instr.Functions[F].HasPathProfile);

  ASSERT_EQ(A.Tree != nullptr, B.Tree != nullptr);
  if (A.Tree && B.Tree)
    expectTreesEqual(*A.Tree, *B.Tree);
}

std::string makeTempDir() {
  char Template[] = "/tmp/pp-driver-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  EXPECT_NE(Dir, nullptr);
  return Dir ? Dir : "";
}

void removeDir(const std::string &Dir) {
  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream File(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(File), {});
}

/// Where a cache in \p Dir keeps \p Plan's entry.
std::string entryPath(const std::string &Dir, const RunPlan &Plan) {
  return Dir + "/" + profdb::artifactFileName(RunKey::of(Plan).Fingerprint);
}

/// The disk entry a cache writes for \p Plan.
std::vector<uint8_t> cacheEntryBytes(const RunPlan &Plan) {
  std::string Dir = makeTempDir();
  Driver Writer(Dir, /*Threads=*/1);
  OutcomePtr Stored = Writer.run(Plan);
  EXPECT_TRUE(Stored && Stored->Result.Ok);
  std::vector<uint8_t> Bytes = readFile(entryPath(Dir, Plan));
  removeDir(Dir);
  return Bytes;
}

TEST(RunKeyTest, FingerprintSeparatesPlans) {
  RunKey Base = RunKey::of(makePlan("124.m88ksim", prof::Mode::FlowHw));
  EXPECT_TRUE(Base.Cacheable);

  EXPECT_NE(Base.Fingerprint,
            RunKey::of(makePlan("124.m88ksim", prof::Mode::ContextFlow))
                .Fingerprint);
  EXPECT_NE(Base.Fingerprint,
            RunKey::of(makePlan("099.go", prof::Mode::FlowHw)).Fingerprint);
  EXPECT_NE(
      Base.Fingerprint,
      RunKey::of(makePlan("124.m88ksim", prof::Mode::FlowHw, 2)).Fingerprint);

  RunPlan Tweaked = makePlan("124.m88ksim", prof::Mode::FlowHw);
  Tweaked.Options.MachineCfg.DCache.Associativity *= 2;
  EXPECT_NE(Base.Fingerprint, RunKey::of(Tweaked).Fingerprint);

  EXPECT_EQ(Base.Fingerprint,
            RunKey::of(makePlan("124.m88ksim", prof::Mode::FlowHw))
                .Fingerprint);
}

TEST(RunKeyTest, FingerprintSeparatesEngines) {
  // Cached outcomes must never cross engines: the engine is part of the
  // run's identity even though the engines are proven bit-identical.
  RunPlan Ref = makePlan("124.m88ksim", prof::Mode::FlowHw);
  Ref.Options.Engine = vm::Engine::Reference;
  RunPlan Thr = makePlan("124.m88ksim", prof::Mode::FlowHw);
  Thr.Options.Engine = vm::Engine::Threaded;
  EXPECT_NE(RunKey::of(Ref).Fingerprint, RunKey::of(Thr).Fingerprint);
}

TEST(RunKeyTest, OptVariantDimensionIsAppendOnly) {
  // Baseline plans carry no ;opt= dimension at all, so every
  // pre-optimizer fingerprint (and its cache file) is byte-identical to
  // what it always was; tagged plans get their own cache identity.
  RunPlan Base = makePlan("124.m88ksim", prof::Mode::None);
  EXPECT_EQ(RunKey::of(Base).Fingerprint.find(";opt="), std::string::npos);

  RunPlan Tagged = makePlan("124.m88ksim", prof::Mode::None);
  Tagged.OptVariant = "layout+superblock+inline";
  EXPECT_NE(RunKey::of(Tagged).Fingerprint.find(";opt=layout+superblock+inline"),
            std::string::npos);
  EXPECT_NE(RunKey::of(Base).Fingerprint, RunKey::of(Tagged).Fingerprint);

  RunPlan Other = makePlan("124.m88ksim", prof::Mode::None);
  Other.OptVariant = "layout";
  EXPECT_NE(RunKey::of(Other).Fingerprint, RunKey::of(Tagged).Fingerprint);
}

TEST(RunKeyTest, KDimensionIsAppendOnly) {
  // Classic k = 1 plans carry no ;k= dimension at all, so every
  // pre-k-BL fingerprint (and its cache file) is byte-identical to what
  // it always was; multi-iteration plans get their own cache identity.
  RunPlan Base = makePlan("124.m88ksim", prof::Mode::FlowHw);
  ASSERT_EQ(Base.Options.Config.K, 1u);
  EXPECT_EQ(RunKey::of(Base).Fingerprint.find(";k="), std::string::npos);

  RunPlan K2 = makePlan("124.m88ksim", prof::Mode::FlowHw);
  K2.Options.Config.K = 2;
  EXPECT_NE(RunKey::of(K2).Fingerprint.find(";k=2"), std::string::npos);
  EXPECT_NE(RunKey::of(Base).Fingerprint, RunKey::of(K2).Fingerprint);

  RunPlan K3 = makePlan("124.m88ksim", prof::Mode::FlowHw);
  K3.Options.Config.K = 3;
  EXPECT_NE(RunKey::of(K2).Fingerprint, RunKey::of(K3).Fingerprint);
}

TEST(RunKeyTest, PredicatePlansAreUncacheable) {
  RunPlan Plan = makePlan("124.m88ksim", prof::Mode::FlowHw);
  Plan.Options.Config.ShouldInstrument = [](const ir::Function &) {
    return true;
  };
  EXPECT_FALSE(RunKey::of(Plan).Cacheable);
}

TEST(DriverTest, MemoizedRunEqualsFreshRun) {
  Driver Memoized(/*DiskDir=*/"", /*Threads=*/2);
  OutcomePtr First =
      Memoized.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
  ASSERT_TRUE(First && First->Result.Ok);
  OutcomePtr Second =
      Memoized.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
  // The repeat is a memory hit: literally the same object.
  EXPECT_EQ(First.get(), Second.get());
  EXPECT_EQ(Memoized.scheduler().runsExecuted(), 1u);

  // And it equals a run from a driver that has never seen the plan.
  Driver Fresh(/*DiskDir=*/"", /*Threads=*/1);
  OutcomePtr Clean =
      Fresh.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
  ASSERT_TRUE(Clean && Clean->Result.Ok);
  expectOutcomesEqual(*Clean, *First);
}

TEST(DriverTest, ParallelMatchesSerial) {
  const char *Workloads[] = {"124.m88ksim", "130.li", "107.mgrid"};
  const prof::Mode Modes[] = {prof::Mode::None, prof::Mode::FlowHw,
                              prof::Mode::ContextFlow};

  Driver Parallel(/*DiskDir=*/"", /*Threads=*/4);
  Driver Serial(/*DiskDir=*/"", /*Threads=*/0);
  ASSERT_EQ(Parallel.scheduler().numThreads(), 4u);
  ASSERT_EQ(Serial.scheduler().numThreads(), 0u);

  std::vector<size_t> ParallelTickets, SerialTickets;
  for (const char *Workload : Workloads)
    for (prof::Mode M : Modes) {
      ParallelTickets.push_back(Parallel.submit(makePlan(Workload, M)));
      SerialTickets.push_back(Serial.submit(makePlan(Workload, M)));
    }
  for (size_t Index = 0; Index != ParallelTickets.size(); ++Index) {
    OutcomePtr P = Parallel.get(ParallelTickets[Index]);
    OutcomePtr S = Serial.get(SerialTickets[Index]);
    ASSERT_TRUE(P && S);
    expectOutcomesEqual(*S, *P);
  }
}

TEST(DriverTest, DuplicateSubmissionsFoldOntoOneExecution) {
  Driver D(/*DiskDir=*/"", /*Threads=*/2);
  size_t A = D.submit(makePlan("130.li", prof::Mode::FlowHw));
  size_t B = D.submit(makePlan("130.li", prof::Mode::FlowHw));
  EXPECT_NE(A, B);
  OutcomePtr OA = D.get(A), OB = D.get(B);
  EXPECT_EQ(OA.get(), OB.get());
  EXPECT_EQ(D.scheduler().runsExecuted(), 1u);
}

TEST(DriverTest, UncacheablePlansRunEveryTime) {
  Driver D(/*DiskDir=*/"", /*Threads=*/2);
  RunPlan Plan = makePlan("130.li", prof::Mode::None);
  Plan.Cacheable = false;
  size_t A = D.submit(Plan);
  size_t B = D.submit(Plan);
  OutcomePtr OA = D.get(A), OB = D.get(B);
  ASSERT_TRUE(OA && OB);
  EXPECT_NE(OA.get(), OB.get());
  EXPECT_EQ(D.scheduler().runsExecuted(), 2u);
  expectOutcomesEqual(*OA, *OB);
}

TEST(DriverTest, DiskCacheRoundTripsAcrossDrivers) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  OutcomePtr Stored;
  {
    Driver Writer(Dir, /*Threads=*/2);
    Stored = Writer.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
    ASSERT_TRUE(Stored && Stored->Result.Ok);
    EXPECT_EQ(Writer.cache().stats().Stores, 1u);
  }

  Driver Reader(Dir, /*Threads=*/2);
  OutcomePtr Restored =
      Reader.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
  ASSERT_TRUE(Restored && Restored->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 0u);
  EXPECT_EQ(Reader.cache().stats().DiskHits, 1u);
  // Restored outcomes drop the instrumented module, nothing else.
  EXPECT_EQ(Restored->Instr.M, nullptr);
  expectOutcomesEqual(*Stored, *Restored);

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(DriverTest, NestedCacheDirIsCreatedWhole) {
  // None of a/b/cache exists yet: the first store must create the whole
  // path, not just its last component, or every write fails.
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  std::string Nested = Dir + "/a/b/cache";

  {
    Driver Writer(Nested, /*Threads=*/1);
    OutcomePtr Run = Writer.run(makePlan("130.li", prof::Mode::Flow));
    ASSERT_TRUE(Run && Run->Result.Ok);
    EXPECT_EQ(Writer.cache().stats().Stores, 1u);
    EXPECT_EQ(Writer.cache().stats().WriteFailures, 0u);
  }

  Driver Reader(Nested, /*Threads=*/1);
  OutcomePtr Restored = Reader.run(makePlan("130.li", prof::Mode::Flow));
  ASSERT_TRUE(Restored && Restored->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 0u);
  EXPECT_EQ(Reader.cache().stats().DiskHits, 1u);

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(RunRecordTest, RejectsMismatchedFingerprint) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  RunPlan Flow = makePlan("130.li", prof::Mode::Flow);
  RunPlan Other = makePlan("130.li", prof::Mode::Flow, /*Scale=*/2);
  OutcomePtr Stored;
  {
    Driver Writer(Dir, /*Threads=*/1);
    Stored = Writer.run(Flow);
    ASSERT_TRUE(Stored && Stored->Result.Ok);
  }
  // A well-formed entry under another run's file name, as a hash
  // collision would leave it, must not be served for that run.
  {
    std::vector<uint8_t> Bytes = readFile(entryPath(Dir, Flow));
    std::ofstream Out(entryPath(Dir, Other), std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
  }

  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Rerun = Reader.run(Other);
  ASSERT_TRUE(Rerun && Rerun->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 1u);
  RunCache::Stats Stats = Reader.cache().stats();
  EXPECT_EQ(Stats.DecodeFailures, 1u);
  EXPECT_EQ(Stats.FingerprintMismatches, 1u);
  // Under its own fingerprint the entry decodes to the stored outcome.
  OutcomePtr Restored = Reader.run(Flow);
  ASSERT_TRUE(Restored);
  EXPECT_EQ(Reader.cache().stats().DiskHits, 1u);
  expectOutcomesEqual(*Stored, *Restored);
  removeDir(Dir);
}

TEST(RunRecordTest, KItersSurviveTheCacheTrip) {
  // A k = 2 outcome restored from the run cache must still know its
  // windows span two iterations — per function (the ladder level) and in
  // the instrumentation info — or the renderers would decode window ids
  // against the wrong numbering.
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  RunPlan Plan = makePlan("130.li", prof::Mode::Flow);
  Plan.Options.Config.K = 2;
  OutcomePtr Run;
  {
    Driver Writer(Dir, /*Threads=*/1);
    Run = Writer.run(Plan);
    ASSERT_TRUE(Run && Run->Result.Ok);
  }
  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Out = Reader.run(Plan);
  ASSERT_TRUE(Out);
  EXPECT_EQ(Reader.cache().stats().DiskHits, 1u);
  expectOutcomesEqual(*Run, *Out);

  bool SawMultiIteration = false;
  ASSERT_EQ(Out->PathProfiles.size(), Run->PathProfiles.size());
  for (size_t I = 0; I != Out->PathProfiles.size(); ++I)
    EXPECT_EQ(Out->PathProfiles[I].KIters, Run->PathProfiles[I].KIters);
  ASSERT_EQ(Out->Instr.Functions.size(), Run->Instr.Functions.size());
  for (size_t I = 0; I != Out->Instr.Functions.size(); ++I) {
    EXPECT_EQ(Out->Instr.Functions[I].KIters, Run->Instr.Functions[I].KIters);
    SawMultiIteration |= Out->Instr.Functions[I].KIters > 1;
  }
  EXPECT_TRUE(SawMultiIteration);
  removeDir(Dir);
}

TEST(RunRecordTest, RejectsMismatchedVersion) {
  // A future format bump leaves old files behind; they must be rejected
  // as BadVersion (and re-executed), not misparsed. The version gate
  // fires before the checksum, so even a checksum-consistent file of
  // another version is refused.
  std::vector<uint8_t> Bytes =
      cacheEntryBytes(makePlan("130.li", prof::Mode::Flow));
  ASSERT_GT(Bytes.size(), 16u);
  Bytes[8] += 1; // version field, little-endian low byte
  profdb::Artifact Out;
  EXPECT_EQ(profdb::decodeArtifact(Bytes, Out),
            profdb::DecodeStatus::BadVersion);
}

TEST(DriverTest, StaleVersionFileOnDiskIsReplacedByReexecution) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  {
    Driver Writer(Dir, /*Threads=*/1);
    OutcomePtr Run = Writer.run(makePlan("130.li", prof::Mode::Flow));
    ASSERT_TRUE(Run && Run->Result.Ok);
  }

  // Move the version field of the file on disk to one this build does
  // not read, as if a format bump left another cache directory behind.
  std::string Path = entryPath(Dir, makePlan("130.li", prof::Mode::Flow));
  {
    std::FILE *File = std::fopen(Path.c_str(), "r+b");
    ASSERT_NE(File, nullptr);
    std::fseek(File, 8, SEEK_SET);
    std::fputc(0, File); // version 0
    std::fclose(File);
  }

  Driver Reader(Dir, /*Threads=*/1);
  OutcomePtr Run = Reader.run(makePlan("130.li", prof::Mode::Flow));
  ASSERT_TRUE(Run && Run->Result.Ok);
  EXPECT_EQ(Reader.scheduler().runsExecuted(), 1u);
  RunCache::Stats Stats = Reader.cache().stats();
  EXPECT_EQ(Stats.DiskHits, 0u);
  EXPECT_EQ(Stats.DecodeFailures, 1u);
  EXPECT_EQ(Stats.DecodeFailuresBy[static_cast<unsigned>(
                profdb::DecodeStatus::BadVersion)],
            1u);

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(DriverTest, UnwritableCacheDirDegradesToUncached) {
  // A cache "directory" that is actually a file: mkdir and every write
  // under it fail unconditionally (even for root, where a read-only
  // directory would not).
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  std::string NotADir = Dir + "/cache";
  { std::fclose(std::fopen(NotADir.c_str(), "w")); }

  {
    Driver D(NotADir, /*Threads=*/1);
    OutcomePtr Run = D.run(makePlan("130.li", prof::Mode::Flow));
    // The run still succeeds; only the persistence degraded.
    ASSERT_TRUE(Run && Run->Result.Ok);
    EXPECT_EQ(D.cache().stats().WriteFailures, 1u);
    // The memory layer still memoizes.
    OutcomePtr Again = D.run(makePlan("130.li", prof::Mode::Flow));
    EXPECT_EQ(Run.get(), Again.get());
    EXPECT_EQ(D.scheduler().runsExecuted(), 1u);
  }

  // Nothing was persisted: a fresh driver re-executes.
  Driver Fresh(NotADir, /*Threads=*/1);
  OutcomePtr Rerun = Fresh.run(makePlan("130.li", prof::Mode::Flow));
  ASSERT_TRUE(Rerun && Rerun->Result.Ok);
  EXPECT_EQ(Fresh.scheduler().runsExecuted(), 1u);
  EXPECT_EQ(Fresh.cache().stats().DiskHits, 0u);

  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(SchedulerTest, NonNumericThreadsEnvKeepsParallelDefault) {
  setenv("PP_DRIVER_THREADS", "max", 1);
  // A typo must warn and keep the hardware default, not silently fall to
  // serial (atol("max") == 0).
  EXPECT_GE(RunScheduler::defaultWorkerThreads(), 4u);
  setenv("PP_DRIVER_THREADS", "2", 1);
  EXPECT_EQ(RunScheduler::defaultWorkerThreads(), 2u);
  setenv("PP_DRIVER_THREADS", "0", 1);
  EXPECT_EQ(RunScheduler::defaultWorkerThreads(), 0u);
  unsetenv("PP_DRIVER_THREADS");
}

TEST(RunRecordTest, RejectsTruncatedBytes) {
  std::vector<uint8_t> Bytes =
      cacheEntryBytes(makePlan("130.li", prof::Mode::ContextFlow));
  ASSERT_GT(Bytes.size(), 16u);
  for (size_t Cut : {size_t(0), size_t(7), Bytes.size() / 2,
                     Bytes.size() - 1}) {
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    profdb::Artifact Out;
    EXPECT_NE(profdb::decodeArtifact(Truncated, Out),
              profdb::DecodeStatus::Ok)
        << "accepted " << Cut << " bytes";
  }
}

TEST(RunRecordTest, DepositBytesMatchOnEveryPath) {
  // A deposit is encoded from the cached record: the fresh run, a memory
  // hit and a disk hit write the same bytes, and those are the bytes of
  // the artifact packaged from a rebuilt module.
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  RunPlan Plan = makePlan("130.li", prof::Mode::ContextFlowHw);
  std::string Name = profdb::artifactFileName(RunKey::of(Plan).Fingerprint);
  // Each scheduler runs the plan once, depositing into \p Sub.
  auto RunInto = [&](RunCache &Cache, const char *Sub) {
    RunScheduler Scheduler(&Cache, /*Threads=*/0);
    Scheduler.setProfileOutDir(Dir + "/" + Sub);
    return Scheduler.get(Scheduler.submit(Plan));
  };
  RunCache Writer(Dir + "/cache");
  OutcomePtr Run = RunInto(Writer, "fresh");
  ASSERT_TRUE(Run && Run->Result.Ok);
  RunInto(Writer, "memory");
  EXPECT_EQ(Writer.stats().MemoryHits, 1u);
  RunCache Reader(Dir + "/cache");
  RunInto(Reader, "disk");
  EXPECT_EQ(Reader.stats().DiskHits, 1u);

  auto Module = workloads::buildWorkload("130.li", 1);
  ASSERT_NE(Module, nullptr);
  std::vector<uint8_t> Want = profdb::encodeArtifact(
      profdb::artifactFromOutcome(*Run, *Module, RunKey::of(Plan).Fingerprint,
                                  "130.li", 1, Plan.Options.Config));
  for (const char *Sub : {"fresh", "memory", "disk"})
    EXPECT_EQ(readFile(Dir + "/" + Sub + "/" + Name), Want) << Sub;
  removeDir(Dir);
}

TEST(TreeImageTest, ImageRoundTripPreservesTheTree) {
  Driver D(/*DiskDir=*/"", /*Threads=*/1);
  OutcomePtr Run = D.run(makePlan("124.m88ksim", prof::Mode::ContextFlow));
  ASSERT_TRUE(Run && Run->Result.Ok && Run->Tree);

  std::unique_ptr<cct::CallingContextTree> Rebuilt =
      cct::CallingContextTree::fromImage(Run->Tree->image());
  ASSERT_TRUE(Rebuilt);
  expectTreesEqual(*Run->Tree, *Rebuilt);

  cct::CctStats A = Run->Tree->computeStats();
  cct::CctStats B = Rebuilt->computeStats();
  EXPECT_EQ(A.NumRecords, B.NumRecords);
  EXPECT_EQ(A.MaxDepth, B.MaxDepth);
  EXPECT_EQ(A.MaxReplication, B.MaxReplication);
  EXPECT_EQ(A.BackedgeSlots, B.BackedgeSlots);
  EXPECT_EQ(Run->Tree->heapBytes(), Rebuilt->heapBytes());
}

} // namespace
