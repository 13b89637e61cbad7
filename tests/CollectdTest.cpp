//===- tests/CollectdTest.cpp - fleet ingest service -----------------------------===//
//
// The collector's contract: every upload gets a typed verdict; a corrupt
// or cross-acquisition upload rejects exactly that artifact and provably
// leaves the window's fold byte-identical to a service that never saw
// it; window folds are bit-identical under any arrival order or thread
// count; quotas and queue backpressure bound the fleet; persisted
// windows are ordinary .ppa artifacts.
//
//===----------------------------------------------------------------------===//

#include "cct/CallingContextTree.h"
#include "collectd/Ingest.h"
#include "collectd/MergeTree.h"
#include "driver/Driver.h"
#include "driver/FaultInjector.h"
#include "profdb/Merge.h"
#include "profdb/Store.h"
#include "support/Checksum.h"
#include "support/Prng.h"
#include "workloads/Spec.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

using namespace pp;
using namespace pp::collectd;

namespace {

std::string makeTempDir() {
  char Template[] = "/tmp/pp-collectd-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  EXPECT_NE(Dir, nullptr);
  return Dir ? Dir : "";
}

void removeDir(const std::string &Dir) {
  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

struct InjectorGuard {
  ~InjectorGuard() { driver::FaultInjector::instance().configure({}); }
};

/// A decoded artifact for 130.li (built once; cloned per upload via its
/// encoded bytes). \p Acquisition tags the schema only — the measurement
/// is the same exact run either way, which is exactly what the
/// cross-acquisition gate must catch.
const std::vector<uint8_t> &encodedArtifact(const std::string &Fingerprint,
                                            const std::string &Acquisition) {
  static std::vector<uint8_t> *Cache = nullptr;
  static driver::OutcomePtr Run;
  static std::unique_ptr<ir::Module> Module;
  static prof::ProfileConfig Config;
  if (!Run) {
    driver::Driver D(/*DiskDir=*/"", /*Threads=*/0);
    driver::RunPlan Plan;
    Plan.Workload = "130.li";
    Plan.Options.Config.M = prof::Mode::ContextFlowHw;
    Run = D.run(Plan);
    EXPECT_TRUE(Run && Run->Result.Ok);
    Module = workloads::buildWorkload("130.li", 1);
    Config = Plan.Options.Config;
  }
  profdb::Artifact A = profdb::artifactFromOutcome(
      *Run, *Module, Fingerprint, "130.li", 1, Config, Acquisition);
  static thread_local std::vector<uint8_t> Bytes;
  Bytes = profdb::encodeArtifact(A);
  (void)Cache;
  return Bytes;
}

Upload makeUpload(const std::string &Tenant, uint64_t Window,
                  unsigned Serial, const std::string &Acq = "exact") {
  return Upload{Tenant, Window,
                encodedArtifact("fleet;u" + std::to_string(Serial), Acq)};
}

IngestConfig manualConfig() {
  IngestConfig C;
  C.Threads = 0; // manual pump: fully deterministic
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Rejection isolation — the acceptance criterion
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, CorruptUploadRejectsOnlyThatArtifact) {
  IngestService Clean(manualConfig());
  IngestService Faulty(manualConfig());

  for (unsigned Serial = 0; Serial != 5; ++Serial) {
    Upload U = makeUpload("t0", /*Window=*/7, Serial);
    EXPECT_TRUE(Clean.ingestNow(U).Accepted);
    EXPECT_TRUE(Faulty.ingestNow(std::move(U)).Accepted);
  }

  // One more upload, corrupted in flight, reaches only the faulty
  // service. The CRC gate turns it into a typed rejection.
  Upload Bad = makeUpload("t0", 7, 99);
  Bad.Bytes[Bad.Bytes.size() / 2] ^= 0x10;
  UploadResult Verdict = Faulty.ingestNow(std::move(Bad));
  EXPECT_FALSE(Verdict.Accepted);
  EXPECT_EQ(Verdict.Reason, RejectReason::Corrupt);
  EXPECT_EQ(Verdict.Decode, profdb::DecodeStatus::BadChecksum);

  IngestStats Stats = Faulty.stats();
  EXPECT_EQ(Stats.Accepted, 5u);
  EXPECT_EQ(Stats.Rejected, 1u);
  EXPECT_EQ(Stats.RejectedBy[static_cast<size_t>(RejectReason::Corrupt)],
            1u);

  // The fold of the window that saw the corrupt upload is byte-identical
  // to the fold of the window that never did.
  std::string Error;
  std::vector<std::vector<uint8_t>> FaultyBytes = Faulty.windowBytes(7, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  std::vector<std::vector<uint8_t>> CleanBytes = Clean.windowBytes(7, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(FaultyBytes, CleanBytes);
}

TEST(CollectdIngestTest, CrossAcquisitionUploadIsRejectedTyped) {
  IngestService Clean(manualConfig());
  IngestService Faulty(manualConfig());

  for (unsigned Serial = 0; Serial != 3; ++Serial) {
    Upload U = makeUpload("t0", 1, Serial);
    EXPECT_TRUE(Clean.ingestNow(U).Accepted);
    EXPECT_TRUE(Faulty.ingestNow(std::move(U)).Accepted);
  }

  // A structurally valid artifact whose schema says its counts were
  // *sampled*: folding it into exact counts would quietly bias the
  // window, so it is refused before any merge.
  UploadResult Verdict =
      Faulty.ingestNow(makeUpload("t0", 1, 50, "overflow"));
  EXPECT_FALSE(Verdict.Accepted);
  EXPECT_EQ(Verdict.Reason, RejectReason::CrossAcquisition);
  EXPECT_EQ(Verdict.Decode, profdb::DecodeStatus::Ok);

  std::string Error;
  EXPECT_EQ(Faulty.windowBytes(1, Error), Clean.windowBytes(1, Error));
  EXPECT_TRUE(Error.empty()) << Error;
}

TEST(CollectdIngestTest, InjectedReadCorruptionRejectsUploadNotWindow) {
  InjectorGuard Guard;
  IngestService Service(manualConfig());
  ASSERT_TRUE(Service.ingestNow(makeUpload("t0", 0, 0)).Accepted);

  driver::FaultInjector::Config C;
  C.Seed = 9;
  C.FlipEveryNthRead = 1;
  driver::FaultInjector::instance().configure(C);
  UploadResult Verdict = Service.ingestNow(makeUpload("t0", 0, 1));
  EXPECT_FALSE(Verdict.Accepted);
  EXPECT_EQ(Verdict.Reason, RejectReason::Corrupt);

  driver::FaultInjector::instance().configure({});
  EXPECT_TRUE(Service.ingestNow(makeUpload("t0", 0, 2)).Accepted);
  EXPECT_EQ(Service.stats().Accepted, 2u);
}

//===----------------------------------------------------------------------===//
// Determinism of the window folds
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, ArrivalOrderAndThreadsDoNotChangeBytes) {
  constexpr unsigned NumUploads = 9;
  std::vector<Upload> Uploads;
  for (unsigned Serial = 0; Serial != NumUploads; ++Serial)
    Uploads.push_back(makeUpload("t0", 3, Serial));

  auto FoldBytes = [&](std::vector<Upload> Ups, IngestConfig C) {
    IngestService Service(C);
    for (Upload &U : Ups)
      Service.submit(std::move(U));
    Service.drain();
    std::string Error;
    auto Bytes = Service.windowBytes(3, Error);
    EXPECT_TRUE(Error.empty()) << Error;
    EXPECT_EQ(Service.stats().Accepted, NumUploads);
    return Bytes;
  };

  IngestConfig Manual = manualConfig();
  std::vector<std::vector<uint8_t>> Reference = FoldBytes(Uploads, Manual);
  ASSERT_FALSE(Reference.empty());

  // Reversed arrivals.
  std::vector<Upload> Reversed(Uploads.rbegin(), Uploads.rend());
  EXPECT_EQ(FoldBytes(std::move(Reversed), Manual), Reference);

  // A racing thread pool: arrival interleaving is whatever the scheduler
  // makes it, the bytes must not care.
  IngestConfig Threaded = manualConfig();
  Threaded.Threads = 4;
  EXPECT_EQ(FoldBytes(std::move(Uploads), Threaded), Reference);
}

TEST(CollectdMergeTreeTest, FoldMatchesFlatMergeWithOneResidentArtifact) {
  constexpr unsigned NumLeaves = 8;
  MergeTree Tree;
  EXPECT_EQ(Tree.residentArtifacts(), 0u);
  std::vector<profdb::Artifact> Flat;
  std::string Error;
  for (unsigned Serial = 0; Serial != NumLeaves; ++Serial) {
    profdb::Artifact A;
    ASSERT_EQ(profdb::decodeArtifact(
                  encodedArtifact("fleet;u" + std::to_string(Serial), "exact"),
                  A),
              profdb::DecodeStatus::Ok);
    Flat.push_back(profdb::cloneArtifact(A));
    ASSERT_TRUE(Tree.add(std::move(A), Error)) << Error;
  }
  // Every leaf is folded in and dropped: the fold is all that stays.
  EXPECT_EQ(Tree.leafCount(), NumLeaves);
  EXPECT_EQ(Tree.residentArtifacts(), 1u);

  const profdb::Artifact *Folded = Tree.folded(Error);
  ASSERT_NE(Folded, nullptr) << Error;
  profdb::Artifact FlatMerged;
  ASSERT_TRUE(profdb::mergeAll(std::move(Flat), FlatMerged, Error, 1))
      << Error;
  EXPECT_EQ(profdb::encodeArtifact(*Folded),
            profdb::encodeArtifact(FlatMerged));
}

//===----------------------------------------------------------------------===//
// Merge-incompatible uploads — rejected at admission, window intact
//===----------------------------------------------------------------------===//

namespace {

profdb::Artifact decodedArtifact(unsigned Serial) {
  profdb::Artifact A;
  EXPECT_EQ(profdb::decodeArtifact(
                encodedArtifact("fleet;u" + std::to_string(Serial), "exact"),
                A),
            profdb::DecodeStatus::Ok);
  return A;
}

/// An artifact that decodes cleanly and lands in the same schema group as
/// the good uploads — the group key sees only CCT *presence*, not its
/// geometry — but cannot merge with them: its CCT hash threshold differs,
/// which mergeArtifacts rejects as a CCT geometry mismatch.
std::vector<uint8_t> incompatibleBytes() {
  profdb::Artifact A = decodedArtifact(97);
  EXPECT_NE(A.Tree, nullptr);
  cct::TreeImage Image = A.Tree->image();
  Image.HashThreshold += 1;
  A.Tree = cct::CallingContextTree::fromImage(Image);
  EXPECT_NE(A.Tree, nullptr);
  return profdb::encodeArtifact(A);
}

} // namespace

TEST(CollectdMergeTreeTest, IncompatibleAddRejectsAndLeavesTreeUntouched) {
  MergeTree Tree;
  std::string Error;
  for (unsigned Serial = 0; Serial != 3; ++Serial)
    ASSERT_TRUE(Tree.add(decodedArtifact(Serial), Error)) << Error;

  const profdb::Artifact *Before = Tree.folded(Error);
  ASSERT_NE(Before, nullptr) << Error;
  std::vector<uint8_t> BeforeBytes = profdb::encodeArtifact(*Before);

  // The trial merge must reject the incompatible artifact before the
  // fold is touched.
  profdb::Artifact Bad;
  ASSERT_EQ(profdb::decodeArtifact(incompatibleBytes(), Bad),
            profdb::DecodeStatus::Ok);
  EXPECT_FALSE(Tree.add(std::move(Bad), Error));
  EXPECT_NE(Error.find("CCT geometry mismatch"), std::string::npos) << Error;

  // Nothing moved: the leaf count, residency, and the folded bytes are
  // exactly as if the artifact was never offered.
  EXPECT_EQ(Tree.leafCount(), 3u);
  EXPECT_EQ(Tree.residentArtifacts(), 1u);
  const profdb::Artifact *After = Tree.folded(Error);
  ASSERT_NE(After, nullptr) << Error;
  EXPECT_EQ(profdb::encodeArtifact(*After), BeforeBytes);

  // And the tree still accepts compatible leaves afterwards.
  ASSERT_TRUE(Tree.add(decodedArtifact(3), Error)) << Error;
  EXPECT_EQ(Tree.leafCount(), 4u);
}

TEST(CollectdIngestTest, MergeIncompatibleUploadRejectsAtAdmission) {
  IngestService Clean(manualConfig());
  IngestService Faulty(manualConfig());

  // The old failure mode accepted the incompatible upload here and
  // surfaced the merge failure on a later innocent upload or query.
  for (unsigned Serial = 0; Serial != 2; ++Serial) {
    Upload U = makeUpload("t0", 5, Serial);
    EXPECT_TRUE(Clean.ingestNow(U).Accepted);
    EXPECT_TRUE(Faulty.ingestNow(std::move(U)).Accepted);
  }

  UploadResult Verdict =
      Faulty.ingestNow(Upload{"t0", 5, incompatibleBytes()});
  EXPECT_FALSE(Verdict.Accepted);
  EXPECT_EQ(Verdict.Reason, RejectReason::MergeFailed);
  EXPECT_EQ(Verdict.Decode, profdb::DecodeStatus::Ok);

  // Later uploads into the window are innocent and stay accepted.
  Upload U = makeUpload("t0", 5, 2);
  EXPECT_TRUE(Clean.ingestNow(U).Accepted);
  EXPECT_TRUE(Faulty.ingestNow(std::move(U)).Accepted);

  IngestStats Stats = Faulty.stats();
  EXPECT_EQ(Stats.Accepted, 3u);
  EXPECT_EQ(
      Stats.RejectedBy[static_cast<size_t>(RejectReason::MergeFailed)], 1u);

  // The window's fold is byte-identical to a service that never saw the
  // incompatible upload, and queries keep serving.
  std::string Error;
  std::vector<std::vector<uint8_t>> FaultyBytes =
      Faulty.windowBytes(5, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  std::vector<std::vector<uint8_t>> CleanBytes = Clean.windowBytes(5, Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(FaultyBytes, CleanBytes);
  EXPECT_NE(Faulty.queryCctStats(5, Error).find("runs=3"),
            std::string::npos);
  EXPECT_TRUE(Error.empty()) << Error;
}

//===----------------------------------------------------------------------===//
// The in-place fold against the reference left fold
//===----------------------------------------------------------------------===//

namespace {

/// A decoded profile of \p Workload under \p M (run once per pair, then
/// decoded afresh per call), fingerprinted as upload \p Serial.
profdb::Artifact profiledArtifact(const std::string &Workload, prof::Mode M,
                                  unsigned Serial) {
  static std::map<std::pair<std::string, prof::Mode>, std::vector<uint8_t>>
      Encoded;
  auto [It, Fresh] = Encoded.try_emplace({Workload, M});
  if (Fresh) {
    driver::Driver D(/*DiskDir=*/"", /*Threads=*/0);
    driver::RunPlan Plan;
    Plan.Workload = Workload;
    Plan.Options.Config.M = M;
    driver::OutcomePtr Run = D.run(Plan);
    EXPECT_TRUE(Run && Run->Result.Ok);
    std::unique_ptr<ir::Module> Module = workloads::buildWorkload(Workload, 1);
    It->second = profdb::encodeArtifact(profdb::artifactFromOutcome(
        *Run, *Module, "", Workload, 1, Plan.Options.Config));
  }
  profdb::Artifact A;
  EXPECT_EQ(profdb::decodeArtifact(It->second, A), profdb::DecodeStatus::Ok);
  A.Fingerprint = "diff;u" + std::to_string(Serial);
  A.SourceHash = profdb::fnv1a(A.Fingerprint);
  return A;
}

/// Rebuilds \p A's CCT from its image after \p Edit.
template <typename EditFn>
profdb::Artifact withEditedTree(profdb::Artifact A, EditFn Edit) {
  cct::TreeImage Image = A.Tree->image();
  Edit(Image);
  A.Tree = cct::CallingContextTree::fromImage(Image);
  EXPECT_NE(A.Tree, nullptr);
  return A;
}

using Kind = cct::CallRecord::Slot::Kind;

bool isDirect(const cct::TreeImage::Slot &Slot) {
  return Slot.Kind == static_cast<uint8_t>(Kind::Record);
}

bool isAncestorOrSelf(const cct::TreeImage &Image, uint64_t Ancestor,
                      uint64_t Of) {
  for (int64_t Walk = int64_t(Of); Walk >= 0;
       Walk = Image.Records[size_t(Walk)].Parent)
    if (uint64_t(Walk) == Ancestor)
      return true;
  return false;
}

/// Cuts a random subtree off \p Image, as if those calls never happened:
/// a smaller tree a run could have built.
void pruneSubtree(cct::TreeImage &Image, Prng &R) {
  size_t N = Image.Records.size();
  if (N < 3)
    return;
  size_t Victim = 1 + R.nextBelow(N - 1);
  std::vector<uint8_t> Dead(N, 0);
  std::vector<uint64_t> NewIndex(N, 0);
  std::vector<cct::TreeImage::Record> Kept;
  for (size_t Index = 0; Index != N; ++Index) {
    int64_t Parent = Image.Records[Index].Parent;
    Dead[Index] = Index == Victim || (Parent >= 0 && Dead[size_t(Parent)]);
    if (!Dead[Index]) {
      NewIndex[Index] = Kept.size();
      Kept.push_back(Image.Records[Index]);
    }
  }
  for (cct::TreeImage::Record &Rec : Kept) {
    if (Rec.Parent >= 0)
      Rec.Parent = int64_t(NewIndex[size_t(Rec.Parent)]);
    for (cct::TreeImage::Slot &Slot : Rec.Slots) {
      std::vector<std::pair<uint64_t, uint64_t>> Targets;
      for (const auto &[Target, Cell] : Slot.Targets)
        if (!Dead[Target])
          Targets.emplace_back(NewIndex[Target], Cell);
      if (isDirect(Slot) && Targets.empty())
        Slot.Kind = static_cast<uint8_t>(Kind::Unresolved);
      Slot.Targets = std::move(Targets);
    }
  }
  Image.Records = std::move(Kept);
}

/// A valid profile unlike \p Base: a subtree pruned, counters perturbed,
/// some path entries and path cells dropped.
profdb::Artifact variantOf(const std::string &Workload, prof::Mode M,
                           unsigned Serial, Prng &R) {
  profdb::Artifact A = profiledArtifact(Workload, M, Serial);
  for (prof::FunctionPathProfile &P : A.PathProfiles) {
    std::vector<prof::PathEntry> Kept;
    for (prof::PathEntry E : P.Paths)
      if (R.nextBelow(4)) {
        E.Freq += R.nextBelow(3);
        Kept.push_back(E);
      }
    P.Paths = std::move(Kept);
  }
  if (!A.Tree)
    return A;
  return withEditedTree(std::move(A), [&R](cct::TreeImage &Image) {
    pruneSubtree(Image, R);
    for (cct::TreeImage::Record &Rec : Image.Records) {
      for (uint64_t &Metric : Rec.Metrics)
        Metric += R.nextBelow(3);
      std::vector<std::pair<uint64_t, cct::PathCell>> Cells;
      for (const auto &Cell : Rec.PathCells)
        if (R.nextBelow(4))
          Cells.push_back(Cell);
      Rec.PathCells = std::move(Cells);
    }
  });
}

/// \p A's encoding with a few random bits flipped and the CRC trailer
/// re-sealed, when that still decodes; the decoder cannot tell such
/// damage from data, so only the merge rules stand between it and the
/// fold.
bool resealedMutant(const profdb::Artifact &A, Prng &R,
                    profdb::Artifact &Out) {
  std::vector<uint8_t> Bytes = profdb::encodeArtifact(A);
  for (unsigned Flip = 1 + R.nextBelow(3); Flip; --Flip)
    Bytes[16 + R.nextBelow(Bytes.size() - 20)] ^=
        static_cast<uint8_t>(1u << R.nextBelow(8));
  uint32_t Crc = crc32(Bytes.data(), Bytes.size() - 4);
  for (unsigned Index = 0; Index != 4; ++Index)
    Bytes[Bytes.size() - 4 + Index] = static_cast<uint8_t>(Crc >> (8 * Index));
  return profdb::decodeArtifact(Bytes, Out) == profdb::DecodeStatus::Ok;
}

/// Hand-built shapes that CallingContextTree::enter() cannot produce, each
/// derived from a 130.li Context+Flow+HW profile, with the rule that
/// must refuse it.
struct BadShape {
  std::string Name;
  profdb::Artifact A;
  std::string Error;
};

std::vector<BadShape> badShapes(unsigned Serial) {
  auto Base = [Serial] {
    return profiledArtifact("130.li", prof::Mode::ContextFlowHw, Serial);
  };
  cct::TreeImage Image = Base().Tree->image();
  const auto &Recs = Image.Records;
  std::vector<uint8_t> HasChildren(Recs.size(), 0);
  for (const cct::TreeImage::Record &Rec : Recs)
    if (Rec.Parent >= 0)
      HasChildren[size_t(Rec.Parent)] = 1;
  // (owner, slot) of the first tree edge, below the root, from a slot
  // holding just that leaf child; and of the first direct backedge whose
  // ancestor has a parent.
  size_t EdgeOwner = 0, EdgeSlot = 0, BackOwner = 0, BackSlot = 0;
  for (size_t Index = 1; Index != Recs.size(); ++Index)
    for (size_t S = 0; S != Recs[Index].Slots.size(); ++S) {
      const cct::TreeImage::Slot &Slot = Recs[Index].Slots[S];
      if (Slot.Targets.size() != 1)
        continue;
      uint64_t Target = Slot.Targets[0].first;
      if (!EdgeOwner && Recs[Target].Parent == int64_t(Index) &&
          !HasChildren[Target])
        EdgeOwner = Index, EdgeSlot = S;
      if (!BackOwner && isDirect(Slot) &&
          isAncestorOrSelf(Image, Target, Index) && Recs[Target].Parent > 0)
        BackOwner = Index, BackSlot = S;
    }
  EXPECT_NE(EdgeOwner, 0u);
  EXPECT_NE(BackOwner, 0u);
  uint64_t Leaf = Recs[EdgeOwner].Slots[EdgeSlot].Targets[0].first;
  size_t DirectOwner = 0, DirectSlot = 0;
  for (size_t Index = 0; Index != Recs.size() && !DirectOwner; ++Index)
    for (size_t S = 0; S != Recs[Index].Slots.size(); ++S)
      if (Index && isDirect(Recs[Index].Slots[S])) {
        DirectOwner = Index, DirectSlot = S;
        break;
      }
  EXPECT_NE(DirectOwner, 0u);
  uint64_t Stranger = 0;
  while (Stranger != Recs.size() &&
         (isAncestorOrSelf(Image, Stranger, BackOwner) ||
          Recs[Stranger].Parent == int64_t(BackOwner)))
    ++Stranger;
  EXPECT_NE(Stranger, Recs.size());

  std::vector<BadShape> Shapes;
  Shapes.push_back(
      {"child repeats its owner's procedure",
       withEditedTree(Base(),
                      [&](cct::TreeImage &Image) {
                        cct::TreeImage::Record &Child = Image.Records[Leaf];
                        cct::ProcId Proc = Image.Records[EdgeOwner].Proc;
                        Child.Proc = Proc;
                        Child.Slots.assign(Image.Procs[Proc].NumSites, {});
                        for (size_t S = 0; S != Child.Slots.size(); ++S)
                          if (S < Image.Procs[Proc].SiteIsIndirect.size() &&
                              Image.Procs[Proc].SiteIsIndirect[S])
                            Child.Slots[S].Kind =
                                static_cast<uint8_t>(Kind::List);
                      }),
       "child callee collides with an ancestor"});
  // Decoding drops an unresolved slot's targets, orphaning its child.
  Shapes.push_back({"unresolved slot with targets",
                    withEditedTree(Base(),
                                   [&](cct::TreeImage &Image) {
                                     Image.Records[EdgeOwner]
                                         .Slots[EdgeSlot]
                                         .Kind = static_cast<uint8_t>(
                                         Kind::Unresolved);
                                   }),
                    "orphan record"});
  Shapes.push_back({"resolved direct slot without a callee",
                    withEditedTree(Base(),
                                   [&](cct::TreeImage &Image) {
                                     cct::TreeImage::Slot &Slot =
                                         Image.Records[BackOwner]
                                             .Slots[BackSlot];
                                     Slot.Targets.clear();
                                   }),
                    "does not hold exactly its one callee"});
  Shapes.push_back({"backedge to a non-ancestor",
                    withEditedTree(Base(),
                                   [&](cct::TreeImage &Image) {
                                     Image.Records[BackOwner]
                                         .Slots[BackSlot]
                                         .Targets[0]
                                         .first = Stranger;
                                   }),
                    "neither a child nor an ancestor"});
  Shapes.push_back({"extra call-site slot",
                    withEditedTree(Base(),
                                   [&](cct::TreeImage &Image) {
                                     Image.Records[DirectOwner]
                                         .Slots.emplace_back();
                                   }),
                    "slot count disagrees"});
  Shapes.push_back({"direct site laid out as a list",
                    withEditedTree(Base(),
                                   [&](cct::TreeImage &Image) {
                                     Image.Records[DirectOwner]
                                         .Slots[DirectSlot]
                                         .Kind =
                                         static_cast<uint8_t>(Kind::List);
                                   }),
                    "slot kind disagrees"});
  // Valid alone — a backedge one ancestor further up, to that ancestor's
  // procedure — but the same direct site resolves to a different callee
  // in every genuine profile, so it cannot join their fold.
  Shapes.push_back({"backedge at the wrong distance",
                    withEditedTree(Base(),
                                   [&](cct::TreeImage &Image) {
                                     uint64_t &Target = Image.Records[BackOwner]
                                                            .Slots[BackSlot]
                                                            .Targets[0]
                                                            .first;
                                     Target = uint64_t(
                                         Image.Records[Target].Parent);
                                   }),
                    "direct call site resolves to different callees"});
  return Shapes;
}

/// The reference: the serial left fold through mergeArtifacts, whose
/// first leaf must survive a self-merge.
struct ReferenceFold {
  bool Empty = true;
  profdb::Artifact Fold;

  bool add(const profdb::Artifact &A, std::string &Error) {
    profdb::Artifact Merged;
    if (!profdb::mergeArtifacts(Empty ? A : Fold, A, Merged, Error))
      return false;
    Fold = Empty ? profdb::cloneArtifact(A) : std::move(Merged);
    Empty = false;
    return true;
  }
};

std::vector<uint8_t> foldedBytes(MergeTree &Tree) {
  std::string Error;
  const profdb::Artifact *F = Tree.folded(Error);
  EXPECT_NE(F, nullptr) << Error;
  return F ? profdb::encodeArtifact(*F) : std::vector<uint8_t>();
}

} // namespace

TEST(CollectdMergeTreeTest, HandBuiltShapesRejectWithTreeUntouched) {
  for (BadShape &Shape : badShapes(0)) {
    SCOPED_TRACE(Shape.Name);
    MergeTree Tree;
    ReferenceFold Reference;
    std::string Error;
    for (unsigned Serial = 1; Serial != 3; ++Serial) {
      profdb::Artifact Good =
          profiledArtifact("130.li", prof::Mode::ContextFlowHw, Serial);
      ASSERT_TRUE(Reference.add(Good, Error)) << Error;
      ASSERT_TRUE(Tree.add(std::move(Good), Error)) << Error;
    }
    std::vector<uint8_t> Before = foldedBytes(Tree);

    std::string RefError;
    EXPECT_FALSE(Reference.add(Shape.A, RefError));
    EXPECT_FALSE(Tree.add(std::move(Shape.A), Error));
    EXPECT_NE(Error.find(Shape.Error), std::string::npos) << Error;
    EXPECT_EQ(Error, RefError);
    EXPECT_EQ(Tree.leafCount(), 2u);
    EXPECT_EQ(foldedBytes(Tree), Before);
    EXPECT_EQ(Before, profdb::encodeArtifact(Reference.Fold));

    // The fold underneath the cached bytes is intact too: the next add
    // lands exactly where the reference's does.
    profdb::Artifact Next =
        profiledArtifact("130.li", prof::Mode::ContextFlowHw, 3);
    ASSERT_TRUE(Reference.add(Next, Error)) << Error;
    ASSERT_TRUE(Tree.add(std::move(Next), Error)) << Error;
    EXPECT_EQ(foldedBytes(Tree), profdb::encodeArtifact(Reference.Fold));
  }
}

TEST(CollectdMergeTreeTest, FoldPastTheCctHeapIsRefusedNotFatal) {
  // f's path table takes 150 MiB of the 256 MiB simulated CCT heap. Each
  // profile reaches f in one context, so each fits; their union reaches
  // it in two and would exhaust the heap (a fatal error) when emitted.
  std::vector<cct::ProcDesc> Procs = {
      {"main", 1, {1}, 0}, {"g", 1, {0}, 0}, {"f", 0, {}, (150u << 20) / 24}};
  auto Profile = [&Procs](bool ThroughG, unsigned Serial) {
    profdb::Artifact A;
    A.Fingerprint = "heap;u" + std::to_string(Serial);
    A.SourceHash = profdb::fnv1a(A.Fingerprint);
    A.Workload = "heap";
    A.Functions = {"main", "g", "f"};
    A.Tree = std::make_unique<cct::CallingContextTree>(
        Procs, /*NumMetrics=*/1, nullptr, /*PathCellBytes=*/24,
        /*HashThreshold=*/uint64_t(1) << 24);
    cct::CallRecord *Main = A.Tree->enter(A.Tree->root(), 0, 0);
    A.Tree->enter(ThroughG ? A.Tree->enter(Main, 0, 1) : Main, 0, 2);
    return A;
  };

  std::string Error;
  profdb::Artifact Merged;
  EXPECT_TRUE(profdb::mergeArtifacts(Profile(false, 0), Profile(false, 1),
                                     Merged, Error))
      << Error;
  EXPECT_FALSE(profdb::mergeArtifacts(Profile(false, 0), Profile(true, 1),
                                      Merged, Error));
  EXPECT_NE(Error.find("does not fit the simulated CCT heap"),
            std::string::npos)
      << Error;

  MergeTree Tree;
  ASSERT_TRUE(Tree.add(Profile(false, 0), Error)) << Error;
  ASSERT_TRUE(Tree.add(Profile(false, 1), Error)) << Error;
  std::vector<uint8_t> Before = foldedBytes(Tree);
  EXPECT_FALSE(Tree.add(Profile(true, 2), Error));
  EXPECT_EQ(foldedBytes(Tree), Before);

  // One profile whose own tree overflows the heap is refused at the lift.
  profdb::Artifact Huge = withEditedTree(
      Profile(false, 3), [](cct::TreeImage &Image) {
        Image.Procs[2].NumPaths = (300u << 20) / 24;
      });
  EXPECT_FALSE(MergeTree().add(std::move(Huge), Error));
  EXPECT_NE(Error.find("does not fit the simulated CCT heap"),
            std::string::npos)
      << Error;
}

TEST(CollectdMergeTreeTest, InPlaceFoldMatchesReferenceLeftFold) {
  // Per seed and acquisition mode: a shuffled stream of valid variants,
  // foreign programs, CRC-resealed byte mutants and (for the CCT mode)
  // hand-built bad shapes. Every verdict and every sampled fold must match
  // the reference; folded() is asked at random, so some emissions follow
  // one add and some follow several.
  for (prof::Mode M : {prof::Mode::ContextFlowHw, prof::Mode::FlowHw})
    for (uint64_t Seed = 1; Seed != 4; ++Seed) {
      SCOPED_TRACE("mode " + std::string(prof::modeName(M)) + " seed " +
                   std::to_string(Seed));
      Prng R(Seed);
      std::vector<profdb::Artifact> Stream;
      unsigned Serial = 100;
      for (unsigned Index = 0; Index != 14; ++Index)
        Stream.push_back(variantOf("130.li", M, Serial++, R));
      Stream.push_back(profiledArtifact("124.m88ksim", M, Serial++));
      for (unsigned Found = 0, Tries = 0; Found != 6 && Tries != 4000;
           ++Tries) {
        profdb::Artifact Mutant;
        if (resealedMutant(Stream[R.nextBelow(14)], R, Mutant)) {
          Stream.push_back(std::move(Mutant));
          ++Found;
        }
      }
      if (M == prof::Mode::ContextFlowHw)
        for (BadShape &Shape : badShapes(Serial++))
          Stream.push_back(std::move(Shape.A));
      // The window opens with a genuine upload; everything after it
      // arrives in a seeded shuffle.
      for (size_t Index = Stream.size(); Index > 2; --Index)
        std::swap(Stream[Index - 1], Stream[1 + R.nextBelow(Index - 1)]);

      MergeTree Tree;
      ReferenceFold Reference;
      unsigned Accepted = 0, Rejected = 0;
      for (profdb::Artifact &A : Stream) {
        std::vector<uint8_t> Before;
        if (!Reference.Empty && R.nextBelow(2))
          Before = foldedBytes(Tree);
        std::string Error, RefError;
        bool Want = Reference.add(A, RefError);
        bool Got = Tree.add(std::move(A), Error);
        ASSERT_EQ(Got, Want) << Error << " / " << RefError;
        EXPECT_EQ(Error, RefError);
        (Got ? Accepted : Rejected) += 1;
        if (!Got && !Before.empty()) {
          EXPECT_EQ(foldedBytes(Tree), Before);
        }
        if (!Reference.Empty && (!Got || R.nextBelow(2))) {
          ASSERT_EQ(foldedBytes(Tree), profdb::encodeArtifact(Reference.Fold));
        }
      }
      EXPECT_EQ(Tree.leafCount(), Accepted);
      EXPECT_GE(Accepted, 10u);
      EXPECT_GE(Rejected, M == prof::Mode::ContextFlowHw ? 7u : 1u);
      ASSERT_FALSE(Reference.Empty);
      EXPECT_EQ(foldedBytes(Tree), profdb::encodeArtifact(Reference.Fold));
    }
}

TEST(CollectdMergeTreeTest, FoldBytesMatchCommittedGolden) {
  // The reference left fold above runs the same lift, overlay and emit as
  // the tree, so it cannot see a change to the merge algorithm itself.
  // These folds were written by the trial-merging tree that preceded the
  // in-place fold (each add a full mergeArtifacts of fold and upload);
  // any change to what a fold's bytes are fails here.
  struct Case {
    const char *Workload;
    prof::Mode M;
    const char *Golden;
  };
  for (const Case &C :
       {Case{"130.li", prof::Mode::ContextFlowHw, "fold_li_contextflowhw.ppa"},
        Case{"130.li", prof::Mode::FlowHw, "fold_li_flowhw.ppa"},
        Case{"099.go", prof::Mode::ContextFlowHw, "fold_go_contextflowhw.ppa"},
        Case{"099.go", prof::Mode::FlowHw, "fold_go_flowhw.ppa"}}) {
    SCOPED_TRACE(C.Golden);
    Prng R(7);
    MergeTree Tree;
    std::string Error;
    for (unsigned Serial = 1; Serial != 7; ++Serial)
      ASSERT_TRUE(Tree.add(variantOf(C.Workload, C.M, Serial, R), Error))
          << Error;
    std::ifstream In(std::string(PP_GOLDEN_DIR) + "/" + C.Golden,
                     std::ios::binary);
    ASSERT_TRUE(In.good());
    std::vector<uint8_t> Golden((std::istreambuf_iterator<char>(In)),
                                std::istreambuf_iterator<char>());
    EXPECT_EQ(foldedBytes(Tree), Golden);
  }
}

//===----------------------------------------------------------------------===//
// Quotas and backpressure
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, QuotaBoundsEachTenantPerWindow) {
  IngestConfig C = manualConfig();
  C.TenantWindowQuota = 2;
  IngestService Service(C);

  unsigned Serial = 0;
  for (unsigned I = 0; I != 4; ++I) {
    UploadResult R = Service.ingestNow(makeUpload("loud", 0, Serial++));
    EXPECT_EQ(R.Accepted, I < 2);
    if (!R.Accepted) {
      EXPECT_EQ(R.Reason, RejectReason::QuotaExceeded);
    }
  }
  // Another tenant, and the same tenant in another window, are untouched.
  EXPECT_TRUE(Service.ingestNow(makeUpload("quiet", 0, Serial++)).Accepted);
  EXPECT_TRUE(Service.ingestNow(makeUpload("loud", 1, Serial++)).Accepted);

  IngestStats Stats = Service.stats();
  EXPECT_EQ(Stats.Accepted, 4u);
  EXPECT_EQ(
      Stats.RejectedBy[static_cast<size_t>(RejectReason::QuotaExceeded)],
      2u);
}

TEST(CollectdIngestTest, TrySubmitBackpressuresAtQueueCapacity) {
  IngestConfig C = manualConfig();
  C.QueueCapacity = 2;
  IngestService Service(C);

  EXPECT_TRUE(Service.trySubmit(makeUpload("t0", 0, 0)));
  EXPECT_TRUE(Service.trySubmit(makeUpload("t0", 0, 1)));
  // Queue full and no workers: the caller gets backpressure, not a hang.
  EXPECT_FALSE(Service.trySubmit(makeUpload("t0", 0, 2)));
  EXPECT_EQ(Service.stats().Backpressured, 1u);

  Service.drain();
  EXPECT_EQ(Service.stats().Accepted, 2u);
  EXPECT_TRUE(Service.trySubmit(makeUpload("t0", 0, 2)));
  Service.drain();
  EXPECT_EQ(Service.stats().Accepted, 3u);
}

TEST(CollectdIngestTest, ManualModeSubmitPastCapacityPumpsInline) {
  // submit() in manual-pump mode used to block on QueueNotFull with no
  // consumer to ever wake it: any caller submitting more than
  // QueueCapacity uploads before drain() deadlocked (the ingest bench's
  // serial reference fold hit exactly this). A full queue must instead
  // pump inline on the calling thread.
  IngestConfig C = manualConfig();
  C.QueueCapacity = 2;
  IngestService Service(C);

  for (unsigned Serial = 0; Serial != 7; ++Serial)
    Service.submit(makeUpload("t0", 0, Serial));
  // Capacity still bounds the backlog: everything past it was ingested
  // to make room, so at most QueueCapacity uploads remain queued.
  EXPECT_GE(Service.stats().Accepted, 5u);
  Service.drain();
  EXPECT_EQ(Service.stats().Submitted, 7u);
  EXPECT_EQ(Service.stats().Accepted, 7u);
  EXPECT_EQ(Service.stats().Rejected, 0u);
}

//===----------------------------------------------------------------------===//
// Queries and persistence
//===----------------------------------------------------------------------===//

TEST(CollectdIngestTest, QueriesRenderAndUnknownWindowIsTyped) {
  IngestService Service(manualConfig());
  for (unsigned Serial = 0; Serial != 3; ++Serial)
    ASSERT_TRUE(Service.ingestNow(makeUpload("t0", 4, Serial)).Accepted);

  std::string Error;
  std::string Stats = Service.queryCctStats(4, Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_NE(Stats.find("runs=3"), std::string::npos);
  EXPECT_NE(Stats.find("Max depth"), std::string::npos);

  std::string Procs = Service.queryTopProcs(4, 5, Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_NE(Procs.find("130.li"), std::string::npos);

  EXPECT_EQ(Service.queryTopPaths(99, 5, Error), "");
  EXPECT_NE(Error.find("no such window"), std::string::npos);
  EXPECT_EQ(Service.stats().Queries, 3u);
}

TEST(CollectdIngestTest, PersistWritesOrdinaryArtifacts) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  IngestConfig C = manualConfig();
  // Parents of the store root don't exist yet: persist must create the
  // whole chain (the recursive-mkdir fix this PR ships).
  C.StoreDir = Dir + "/fleet/profiles";
  IngestService Service(C);
  for (unsigned Serial = 0; Serial != 4; ++Serial)
    ASSERT_TRUE(Service.ingestNow(makeUpload("t0", 12, Serial)).Accepted);

  std::string Error;
  ASSERT_TRUE(Service.persist(Error)) << Error;

  std::vector<std::string> Files =
      profdb::listArtifactFiles(C.StoreDir + "/w12");
  ASSERT_EQ(Files.size(), 1u);
  profdb::Artifact Back;
  ASSERT_EQ(profdb::readArtifactFile(Files[0], Back),
            profdb::DecodeStatus::Ok);
  EXPECT_EQ(Back.RunCount, 4u);
  EXPECT_EQ(Back.Workload, "130.li");

  // The persisted bytes are exactly the window fold the queries serve.
  std::vector<std::vector<uint8_t>> Window = Service.windowBytes(12, Error);
  ASSERT_EQ(Window.size(), 1u);
  EXPECT_EQ(profdb::encodeArtifact(Back), Window[0]);

  removeDir(Dir);
}

//===----------------------------------------------------------------------===//
// Token-bucket rate limiting
//===----------------------------------------------------------------------===//

TEST(CollectdRateTest, BucketRefusesBeyondBurstAndRefillsOnTheClock) {
  // A manual clock makes the bucket exact: burst-many accepts, then
  // typed refusals until the injected time advances.
  uint64_t NowNs = 0;
  IngestConfig C = manualConfig();
  C.TenantRatePerSec = 2;  // one token every half second
  C.TenantRateBurst = 3;
  C.RateClockNs = [&NowNs] { return NowNs; };
  IngestService Service(C);

  unsigned Accepted = 0, Limited = 0;
  for (unsigned Serial = 0; Serial != 6; ++Serial) {
    UploadResult R = Service.ingestNow(makeUpload("t0", 0, Serial));
    if (R.Accepted)
      ++Accepted;
    else {
      EXPECT_EQ(R.Reason, RejectReason::RateLimited);
      EXPECT_EQ(R.Decode, profdb::DecodeStatus::Ok);
      ++Limited;
    }
  }
  EXPECT_EQ(Accepted, 3u);
  EXPECT_EQ(Limited, 3u);

  // Half a second buys exactly one more token.
  NowNs += 500000000;
  EXPECT_TRUE(Service.ingestNow(makeUpload("t0", 0, 10)).Accepted);
  UploadResult R = Service.ingestNow(makeUpload("t0", 0, 11));
  EXPECT_FALSE(R.Accepted);
  EXPECT_EQ(R.Reason, RejectReason::RateLimited);

  // The refusal accounting is per reason and never charges the quota or
  // decode counters: a rate-limited upload was refused unseen.
  IngestStats Stats = Service.stats();
  EXPECT_EQ(Stats.Submitted, 8u);
  EXPECT_EQ(Stats.Accepted, 4u);
  EXPECT_EQ(Stats.RejectedBy[static_cast<size_t>(RejectReason::RateLimited)],
            4u);
  EXPECT_EQ(Stats.RejectedBy[static_cast<size_t>(RejectReason::Corrupt)], 0u);
}

TEST(CollectdRateTest, BucketsArePerTenant) {
  uint64_t NowNs = 0;
  IngestConfig C = manualConfig();
  C.TenantRatePerSec = 1;
  C.TenantRateBurst = 1;
  C.RateClockNs = [&NowNs] { return NowNs; };
  IngestService Service(C);

  // Each tenant gets its own full bucket; one tenant draining hers does
  // not starve another's first upload.
  EXPECT_TRUE(Service.ingestNow(makeUpload("t0", 0, 0)).Accepted);
  EXPECT_FALSE(Service.ingestNow(makeUpload("t0", 0, 1)).Accepted);
  EXPECT_TRUE(Service.ingestNow(makeUpload("t1", 0, 2)).Accepted);
  EXPECT_FALSE(Service.ingestNow(makeUpload("t1", 0, 3)).Accepted);
}

//===----------------------------------------------------------------------===//
// Window retention
//===----------------------------------------------------------------------===//

TEST(CollectdRetentionTest, OldWindowsArePersistedThenDroppedAndClosed) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());

  IngestConfig C = manualConfig();
  C.StoreDir = Dir;
  C.RetainWindows = 2;
  IngestService Service(C);

  // Fill windows 1..3: crossing the cap must persist-and-drop window 1.
  for (uint64_t Window = 1; Window != 4; ++Window)
    for (unsigned Serial = 0; Serial != 2; ++Serial)
      ASSERT_TRUE(Service
                      .ingestNow(makeUpload("t0", Window,
                                            unsigned(Window) * 10 + Serial))
                      .Accepted);

  IngestStats Stats = Service.stats();
  EXPECT_EQ(Stats.WindowsExpired, 1u);
  EXPECT_EQ(Stats.RetentionHeld, 0u);
  std::vector<uint64_t> Resident = Service.windows();
  EXPECT_EQ(Resident, (std::vector<uint64_t>{2, 3}));

  // The expired window's fold landed on disk before it left memory.
  std::vector<std::string> Files = profdb::listArtifactFiles(Dir + "/w1");
  ASSERT_EQ(Files.size(), 1u);
  profdb::Artifact Back;
  ASSERT_EQ(profdb::readArtifactFile(Files[0], Back),
            profdb::DecodeStatus::Ok);
  EXPECT_EQ(Back.RunCount, 2u);

  // A late upload aimed below the watermark is refused typed — folding
  // into a fresh resident window 1 would disagree with the stored bytes.
  UploadResult Late = Service.ingestNow(makeUpload("t0", 1, 99));
  EXPECT_FALSE(Late.Accepted);
  EXPECT_EQ(Late.Reason, RejectReason::WindowExpired);
  EXPECT_EQ(
      Service.stats().RejectedBy[static_cast<size_t>(
          RejectReason::WindowExpired)],
      1u);

  removeDir(Dir);
}

TEST(CollectdRetentionTest, UnpersistableWindowsAreNeverDropped) {
  // No StoreDir: retention wants to shed the oldest window but has
  // nowhere to put it. The window must stay resident — dropping
  // unpersisted uploads would silently lose fleet data.
  IngestConfig C = manualConfig();
  C.RetainWindows = 1;
  IngestService Service(C);

  for (uint64_t Window = 0; Window != 3; ++Window)
    ASSERT_TRUE(
        Service.ingestNow(makeUpload("t0", Window, unsigned(Window))).Accepted);

  IngestStats Stats = Service.stats();
  EXPECT_EQ(Stats.WindowsExpired, 0u);
  EXPECT_GE(Stats.RetentionHeld, 1u);
  EXPECT_EQ(Service.windows().size(), 3u);

  // Every window still answers queries — nothing was shed.
  std::string Error;
  for (uint64_t Window = 0; Window != 3; ++Window) {
    EXPECT_FALSE(Service.queryCctStats(Window, Error).empty());
    EXPECT_TRUE(Error.empty()) << Error;
  }
}
