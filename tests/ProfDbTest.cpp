//===- tests/ProfDbTest.cpp - profile repository properties ---------------------===//
//
// The profile repository's contracts, proven on random programs:
//
//  * Round-trip fidelity — encode(decode(encode(A))) is bit-identical and
//    every measurement (totals, path tables, CCT context sums) survives
//    the trip exactly.
//  * Merge correctness — merged metrics equal the integer sums of the
//    inputs' metrics, per path and per calling context, bit for bit.
//  * Merge determinism — any shard order, any thread count, any
//    association of pairwise merges yields bit-identical artifact bytes
//    (the canonical re-emission through the real CCT allocator).
//  * Schema safety — artifacts with different modes or PIC routings are
//    rejected with a descriptive error, never silently summed.
//
// PP_CROSSMODE_SEEDS scales the fuzz seed count (default 64), the same
// knob the cross-mode suite uses.
//
//===----------------------------------------------------------------------===//

#include "prof/Session.h"
#include "profdb/Artifact.h"
#include "profdb/Diff.h"
#include "profdb/Merge.h"
#include "profdb/Store.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <random>
#include <unistd.h>

using namespace pp;
using prof::Mode;

namespace {

/// A run of the random program for \p Seed under shard variant \p Shard:
/// shards differ in D-cache geometry (different metrics, same control
/// flow) and, for odd shards, in asynchronous signal delivery (different
/// control flow — the merge must union the extra contexts).
profdb::Artifact makeShard(uint64_t Seed, unsigned Shard, Mode M,
                           const ir::Module &Program) {
  prof::SessionOptions Options;
  Options.Config.M = M;
  static const uint64_t Sizes[] = {16 * 1024, 8 * 1024, 4 * 1024, 32 * 1024};
  Options.MachineCfg.DCache.SizeBytes = Sizes[Shard % 4];
  if (Shard % 2 == 1) {
    Options.SignalHandler = "sighandler";
    Options.SignalInterval = 401 + 97 * Shard;
  }
  prof::RunOutcome Outcome = prof::runProfile(Program, Options);
  EXPECT_TRUE(Outcome.Result.Ok) << Outcome.Result.Error;
  std::string Fingerprint =
      "fuzz;seed=" + std::to_string(Seed) + ";shard=" + std::to_string(Shard);
  return profdb::artifactFromOutcome(Outcome, Program, Fingerprint,
                                     "fuzz" + std::to_string(Seed), 1,
                                     Options.Config);
}

std::unique_ptr<ir::Module> makeProgram(uint64_t Seed) {
  testutil::RandomProgramOptions Opts;
  Opts.WithSignalHandler = true;
  return testutil::makeRandomProgram(Seed, Opts);
}

/// Flattened, structure-independent view of everything an artifact
/// measures: path profiles keyed (function, path sum) and CCT records
/// keyed by their root-to-record procedure chain (metrics and path cells
/// summed over records sharing a chain). Merged artifacts must equal the
/// elementwise integer sum of their inputs under this view.
using MetricMap = std::map<std::string, std::vector<uint64_t>>;

void addInto(MetricMap &Into, const std::string &Key,
             const std::vector<uint64_t> &Values) {
  std::vector<uint64_t> &Slot = Into[Key];
  if (Slot.size() < Values.size())
    Slot.resize(Values.size(), 0);
  for (size_t I = 0; I != Values.size(); ++I)
    Slot[I] += Values[I];
}

MetricMap metricMap(const profdb::Artifact &A) {
  MetricMap Out;
  addInto(Out, "#insts", {A.ExecutedInsts});
  addInto(Out, "#totals",
          std::vector<uint64_t>(A.Totals.begin(), A.Totals.end()));
  for (const prof::FunctionPathProfile &Profile : A.PathProfiles) {
    if (!Profile.HasProfile)
      continue;
    for (const prof::PathEntry &Entry : Profile.Paths)
      addInto(Out,
              "path:" + std::to_string(Profile.FuncId) + ":" +
                  std::to_string(Entry.PathSum),
              {Entry.Freq, Entry.Metric0, Entry.Metric1});
  }
  if (A.Tree) {
    for (const auto &R : A.Tree->records()) {
      if (R->procId() == cct::RootProcId)
        continue;
      std::string Chain;
      for (const cct::CallRecord *Walk = R.get();
           Walk && Walk->procId() != cct::RootProcId; Walk = Walk->parent())
        Chain = std::to_string(Walk->procId()) + "/" + Chain;
      addInto(Out, "ctx:" + Chain, R->Metrics);
      for (const auto &[Sum, Cell] : R->PathTable)
        addInto(Out, "ctx:" + Chain + "#" + std::to_string(Sum),
                {Cell.Freq, Cell.Metric0, Cell.Metric1});
    }
  }
  return Out;
}

MetricMap sumMaps(const MetricMap &A, const MetricMap &B) {
  MetricMap Out = A;
  for (const auto &[Key, Values] : B)
    addInto(Out, Key, Values);
  return Out;
}

uint64_t seedCount() {
  return testutil::seedCountFromEnv("PP_CROSSMODE_SEEDS", 64);
}

class ProfDbRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

//===----------------------------------------------------------------------===//
// Round-trip fuzz
//===----------------------------------------------------------------------===//

TEST_P(ProfDbRoundTripTest, EncodeDecodeIsExact) {
  uint64_t Seed = GetParam();
  auto Program = makeProgram(Seed);
  // Alternate modes so both representations (flat path tables, CCT with
  // per-context cells) go through the fuzz.
  Mode M = (Seed % 2) ? Mode::ContextFlowHw : Mode::FlowHw;
  profdb::Artifact A = makeShard(Seed, unsigned(Seed % 4), M, *Program);

  std::vector<uint8_t> Bytes = profdb::encodeArtifact(A);
  profdb::Artifact Back;
  ASSERT_EQ(profdb::decodeArtifact(Bytes, Back), profdb::DecodeStatus::Ok)
      << "seed " << Seed;

  // Field-exact and re-encode bit-exact.
  EXPECT_EQ(Back.Fingerprint, A.Fingerprint);
  EXPECT_EQ(Back.SourceHash, A.SourceHash);
  EXPECT_EQ(Back.RunCount, A.RunCount);
  EXPECT_EQ(Back.Workload, A.Workload);
  EXPECT_EQ(Back.Scale, A.Scale);
  EXPECT_TRUE(Back.Schema == A.Schema);
  EXPECT_EQ(Back.Functions, A.Functions);
  EXPECT_EQ(Back.Totals, A.Totals);
  EXPECT_EQ(metricMap(Back), metricMap(A)) << "seed " << Seed;
  EXPECT_EQ(profdb::encodeArtifact(Back), Bytes) << "seed " << Seed;
}

TEST_P(ProfDbRoundTripTest, MergedMetricsAreExactSums) {
  uint64_t Seed = GetParam();
  auto Program = makeProgram(Seed);
  Mode M = (Seed % 2) ? Mode::ContextFlowHw : Mode::FlowHw;
  profdb::Artifact A = makeShard(Seed, 0, M, *Program);
  profdb::Artifact B = makeShard(Seed, 1, M, *Program);
  profdb::Artifact C = makeShard(Seed, 2, M, *Program);

  profdb::Artifact AB;
  std::string Error;
  ASSERT_TRUE(profdb::mergeArtifacts(A, B, AB, Error)) << Error;
  EXPECT_EQ(metricMap(AB), sumMaps(metricMap(A), metricMap(B)))
      << "seed " << Seed;
  EXPECT_EQ(AB.RunCount, 2u);

  // Commutativity and associativity, at the byte level.
  profdb::Artifact BA;
  ASSERT_TRUE(profdb::mergeArtifacts(B, A, BA, Error)) << Error;
  EXPECT_EQ(profdb::encodeArtifact(AB), profdb::encodeArtifact(BA))
      << "seed " << Seed;

  profdb::Artifact AB_C, BC, A_BC;
  ASSERT_TRUE(profdb::mergeArtifacts(AB, C, AB_C, Error)) << Error;
  ASSERT_TRUE(profdb::mergeArtifacts(B, C, BC, Error)) << Error;
  ASSERT_TRUE(profdb::mergeArtifacts(A, BC, A_BC, Error)) << Error;
  EXPECT_EQ(profdb::encodeArtifact(AB_C), profdb::encodeArtifact(A_BC))
      << "seed " << Seed;
  EXPECT_EQ(metricMap(AB_C),
            sumMaps(metricMap(C), sumMaps(metricMap(A), metricMap(B))))
      << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ProfDbRoundTripTest,
                         ::testing::Range<uint64_t>(0, seedCount()));

//===----------------------------------------------------------------------===//
// Merge determinism at scale
//===----------------------------------------------------------------------===//

TEST(ProfDbMergeDeterminismTest, AnyOrderAnyThreadCountSameBytes) {
  const uint64_t Seed = 2027;
  auto Program = makeProgram(Seed);
  constexpr unsigned NumShards = 9;
  std::vector<profdb::Artifact> Shards;
  for (unsigned I = 0; I != NumShards; ++I)
    Shards.push_back(makeShard(Seed, I, Mode::ContextFlowHw, *Program));

  auto MergeOrder = [&Shards](const std::vector<size_t> &Order,
                              unsigned Threads) {
    std::vector<profdb::Artifact> Copy;
    for (size_t Index : Order)
      Copy.push_back(profdb::cloneArtifact(Shards[Index]));
    profdb::Artifact Out;
    std::string Error;
    EXPECT_TRUE(profdb::mergeAll(std::move(Copy), Out, Error, Threads))
        << Error;
    return profdb::encodeArtifact(Out);
  };

  std::vector<size_t> Order(NumShards);
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<uint8_t> Reference = MergeOrder(Order, 1);
  EXPECT_FALSE(Reference.empty());

  std::mt19937_64 Rng(7);
  for (unsigned Trial = 0; Trial != 5; ++Trial) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (unsigned Threads : {1u, 2u, 5u})
      EXPECT_EQ(MergeOrder(Order, Threads), Reference)
          << "trial " << Trial << " threads " << Threads;
  }
}

//===----------------------------------------------------------------------===//
// Schema and shape safety
//===----------------------------------------------------------------------===//

TEST(ProfDbMergeRejectTest, IncompatibleInputsAreRefused) {
  const uint64_t Seed = 11;
  auto Program = makeProgram(Seed);
  profdb::Artifact Base = makeShard(Seed, 0, Mode::ContextFlowHw, *Program);

  // Different mode.
  profdb::Artifact OtherMode = makeShard(Seed, 0, Mode::FlowHw, *Program);
  profdb::Artifact Out;
  std::string Error;
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherMode, Out, Error));
  EXPECT_NE(Error.find("schema"), std::string::npos) << Error;

  // Different PIC routing.
  profdb::Artifact OtherPic = profdb::cloneArtifact(Base);
  OtherPic.Schema.Pic1 = "IC Miss";
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherPic, Out, Error));
  EXPECT_NE(Error.find("schema"), std::string::npos) << Error;

  // Different acquisition: exact counts and sampled estimates must never
  // sum into one table.
  profdb::Artifact OtherAcq = profdb::cloneArtifact(Base);
  OtherAcq.Schema.Acquisition = "overflow";
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherAcq, Out, Error));
  EXPECT_NE(Error.find("acq"), std::string::npos) << Error;

  // Different workload identity.
  profdb::Artifact OtherLoad = profdb::cloneArtifact(Base);
  OtherLoad.Workload = "someone-else";
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherLoad, Out, Error));
  EXPECT_FALSE(Error.empty());

  // Different program shape (function table).
  auto Program2 = makeProgram(Seed + 1);
  profdb::Artifact OtherShape =
      makeShard(Seed + 1, 0, Mode::ContextFlowHw, *Program2);
  OtherShape.Workload = Base.Workload;
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherShape, Out, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ProfDbCrossKTest, CrossKMergeAndDiffAreRefused) {
  // A k = 2 window sum and a k = 1 path sum occupy different id spaces:
  // identical (function, sum) keys name unrelated paths, so cross-k
  // merges and diffs must refuse with a typed reason, not silently sum
  // or subtract unrelated counters.
  const uint64_t Seed = 13;
  auto Program = makeProgram(Seed);
  profdb::Artifact Base = makeShard(Seed, 0, Mode::FlowHw, *Program);
  ASSERT_EQ(Base.Schema.K, 1u);

  profdb::Artifact OtherK = profdb::cloneArtifact(Base);
  OtherK.Schema.K = 2;
  profdb::Artifact Out;
  std::string Error;
  EXPECT_FALSE(profdb::mergeArtifacts(Base, OtherK, Out, Error));
  EXPECT_NE(Error.find("across k"), std::string::npos) << Error;

  profdb::ArtifactDiff Diff;
  Error.clear();
  EXPECT_FALSE(profdb::diffArtifacts(Base, OtherK, Diff, Error));
  EXPECT_NE(Error.find("across k"), std::string::npos) << Error;

  // Per-function fallback levels are part of the identity too: two k = 2
  // runs can ladder differently, and a laddered (k = 1) table must not
  // mix with a true k = 2 table for the same function.
  profdb::Artifact Laddered = profdb::cloneArtifact(Base);
  bool Flipped = false;
  for (prof::FunctionPathProfile &Profile : Laddered.PathProfiles)
    if (Profile.HasProfile && !Flipped) {
      Profile.KIters = 2;
      Flipped = true;
    }
  ASSERT_TRUE(Flipped);
  Error.clear();
  EXPECT_FALSE(profdb::mergeArtifacts(Base, Laddered, Out, Error));
  EXPECT_NE(Error.find("across k"), std::string::npos) << Error;
  Error.clear();
  EXPECT_FALSE(profdb::diffArtifacts(Base, Laddered, Diff, Error));
  EXPECT_NE(Error.find("across k"), std::string::npos) << Error;
}

TEST(ProfDbCrossKTest, KSurvivesTheEncodeDecodeTrip) {
  const uint64_t Seed = 13;
  auto Program = makeProgram(Seed);
  profdb::Artifact A = makeShard(Seed, 0, Mode::FlowHw, *Program);
  A.Schema.K = 3;
  for (prof::FunctionPathProfile &Profile : A.PathProfiles)
    if (Profile.HasProfile)
      Profile.KIters = 2;

  std::vector<uint8_t> Bytes = profdb::encodeArtifact(A);
  profdb::Artifact Back;
  ASSERT_EQ(profdb::decodeArtifact(Bytes, Back), profdb::DecodeStatus::Ok);
  EXPECT_EQ(Back.Schema.K, 3u);
  for (const prof::FunctionPathProfile &Profile : Back.PathProfiles)
    if (Profile.HasProfile) {
      EXPECT_EQ(Profile.KIters, 2u);
    }
  EXPECT_EQ(profdb::encodeArtifact(Back), Bytes);
}

TEST(ProfDbDiffTest, SelfDiffIsEmptyAndShardDiffIsNot) {
  const uint64_t Seed = 5;
  auto Program = makeProgram(Seed);
  profdb::Artifact A = makeShard(Seed, 0, Mode::ContextFlowHw, *Program);
  profdb::Artifact B = makeShard(Seed, 2, Mode::ContextFlowHw, *Program);

  profdb::ArtifactDiff SelfDiff;
  std::string Error;
  ASSERT_TRUE(profdb::diffArtifacts(A, A, SelfDiff, Error)) << Error;
  EXPECT_TRUE(SelfDiff.Paths.empty());
  EXPECT_TRUE(SelfDiff.Contexts.empty());

  // Shards 0 and 2 differ only in D-cache size: same contexts, different
  // miss metrics — the diff must surface deltas.
  profdb::ArtifactDiff ShardDiff;
  ASSERT_TRUE(profdb::diffArtifacts(A, B, ShardDiff, Error)) << Error;
  EXPECT_FALSE(ShardDiff.Contexts.empty());
}

//===----------------------------------------------------------------------===//
// Disk store
//===----------------------------------------------------------------------===//

TEST(ProfDbStoreTest, WriteReadListRoundTrip) {
  char Template[] = "/tmp/pp-profdb-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  ASSERT_NE(Dir, nullptr);

  const uint64_t Seed = 3;
  auto Program = makeProgram(Seed);
  profdb::Artifact A = makeShard(Seed, 0, Mode::ContextFlowHw, *Program);
  profdb::Artifact B = makeShard(Seed, 1, Mode::ContextFlowHw, *Program);

  std::string PathA =
      std::string(Dir) + "/" + profdb::artifactFileName(A.Fingerprint);
  std::string PathB =
      std::string(Dir) + "/" + profdb::artifactFileName(B.Fingerprint);
  std::string Error;
  ASSERT_TRUE(profdb::writeArtifactFile(PathA, A, Error)) << Error;
  ASSERT_TRUE(profdb::writeArtifactFile(PathB, B, Error)) << Error;

  std::vector<std::string> Files = profdb::listArtifactFiles(Dir);
  ASSERT_EQ(Files.size(), 2u);
  EXPECT_TRUE(std::is_sorted(Files.begin(), Files.end()));

  profdb::Artifact Back;
  ASSERT_EQ(profdb::readArtifactFile(PathA, Back), profdb::DecodeStatus::Ok);
  EXPECT_EQ(profdb::encodeArtifact(Back), profdb::encodeArtifact(A));

  EXPECT_EQ(profdb::readArtifactFile(std::string(Dir) + "/absent.ppa", Back),
            profdb::DecodeStatus::Unreadable);

  std::string Cmd = std::string("rm -rf ") + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(ProfDbStoreTest, WriteCreatesNestedParentDirectories) {
  char Template[] = "/tmp/pp-profdb-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  ASSERT_NE(Dir, nullptr);

  const uint64_t Seed = 3;
  auto Program = makeProgram(Seed);
  profdb::Artifact A = makeShard(Seed, 0, Mode::ContextFlowHw, *Program);

  // Three missing levels below the temp root; writeArtifactFile used to
  // create only the last one and fail with ENOENT on the mkstemp.
  std::string Nested = std::string(Dir) + "/tenant-7/2026-08/w042";
  std::string Path = Nested + "/" + profdb::artifactFileName(A.Fingerprint);
  std::string Error;
  ASSERT_TRUE(profdb::writeArtifactFile(Path, A, Error)) << Error;

  profdb::Artifact Back;
  ASSERT_EQ(profdb::readArtifactFile(Path, Back), profdb::DecodeStatus::Ok);
  EXPECT_EQ(profdb::encodeArtifact(Back), profdb::encodeArtifact(A));

  std::vector<std::string> Files = profdb::listArtifactFiles(Nested);
  ASSERT_EQ(Files.size(), 1u);

  // An unwritable parent still reports a typed error, not success.
  Error.clear();
  EXPECT_FALSE(profdb::writeArtifactFile(
      "/proc/no-such-root/a/b/" + profdb::artifactFileName(A.Fingerprint), A,
      Error));
  EXPECT_NE(Error.find("cannot create directory"), std::string::npos) << Error;

  std::string Cmd = std::string("rm -rf ") + Dir;
  (void)std::system(Cmd.c_str());
}
