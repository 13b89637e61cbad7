//===- profdb/Artifact.cpp - Persistent profile artifacts ---------------------===//

#include "profdb/Artifact.h"

#include "cct/ImageIO.h"
#include "obs/Obs.h"
#include "ir/Module.h"
#include "support/BinaryIO.h"
#include "support/Checksum.h"

using namespace pp;
using namespace pp::profdb;

namespace {

constexpr uint64_t Magic = 0x50504442; // "PPDB"
// 2: acquisition joined the schema; 3: k-BL (schema K, per-function KIters)
constexpr uint64_t Version = 3;
// Opens the optional run section after the CCT.
constexpr uint64_t RunTag = 0x50505253; // "PPRS"

// Minimum encoded sizes (bytes) of variable-count elements, used to bound
// counts before allocation.
constexpr size_t MinFunctionBytes = 8;               // name length
constexpr size_t MinPathProfileBytes = 8 + 1 + 8 + 1 + 8 + 8;
constexpr size_t MinPathEntryBytes = 4 * 8;
constexpr size_t MinEdgeProfileBytes = 8 + 1 + 8 + 8;
// 3 flag bytes + NumPaths, KIters, TableAddr, Stride, EdgeTableAddr,
// chord count, NumSites, and the SiteIsIndirect length: 8 u64 fields.
constexpr size_t MinInstrInfoBytes = 3 + 8 * 8;

void writeRunSection(ByteWriter &W, const RunSection &S) {
  W.u64(RunTag);
  W.u8(S.Ok ? 1 : 0);
  W.u64(S.ExitValue);
  W.str(S.Error);
  W.u64(S.Acq.Traps);
  W.u64(S.Acq.Samples);
  W.u64(S.Acq.FramesWalked);
  W.u64(S.Acq.LogBytes);

  W.u64(S.EdgeProfiles.size());
  for (const prof::EdgeProfile &Profile : S.EdgeProfiles) {
    W.u64(Profile.FuncId);
    W.u8(Profile.HasProfile ? 1 : 0);
    W.u64(Profile.Invocations);
    W.u64(Profile.EdgeCounts.size());
    for (uint64_t Count : Profile.EdgeCounts)
      W.u64(Count);
  }

  W.u64(S.Instr.size());
  for (const prof::FunctionInstrInfo &Info : S.Instr) {
    W.u8(Info.Instrumented ? 1 : 0);
    W.u8(Info.HasPathProfile ? 1 : 0);
    W.u64(Info.NumPaths);
    W.u8(Info.Hashed ? 1 : 0);
    W.u64(Info.KIters);
    W.u64(Info.TableAddr);
    W.u64(Info.Stride);
    W.u64(Info.EdgeTableAddr);
    W.u64(Info.ChordEdges.size());
    for (unsigned Edge : Info.ChordEdges)
      W.u64(Edge);
    W.u64(Info.NumSites);
    W.bytes(Info.SiteIsIndirect);
  }
}

// Reads the section after its tag.
DecodeStatus readRunSection(ByteReader &R, RunSection &S) {
  uint8_t Ok;
  if (!R.u8(Ok) || !R.u64(S.ExitValue) || !R.str(S.Error) ||
      !R.u64(S.Acq.Traps) || !R.u64(S.Acq.Samples) ||
      !R.u64(S.Acq.FramesWalked) || !R.u64(S.Acq.LogBytes))
    return DecodeStatus::Truncated;
  S.Ok = Ok != 0;

  uint64_t NumEdgeProfiles;
  if (!R.count(NumEdgeProfiles, MinEdgeProfileBytes))
    return DecodeStatus::Truncated;
  S.EdgeProfiles.resize(NumEdgeProfiles);
  for (prof::EdgeProfile &Profile : S.EdgeProfiles) {
    uint64_t FuncId, NumCounts;
    uint8_t HasProfile;
    if (!R.u64(FuncId) || !R.u8(HasProfile) || !R.u64(Profile.Invocations) ||
        !R.count(NumCounts, 8))
      return DecodeStatus::Truncated;
    Profile.FuncId = static_cast<unsigned>(FuncId);
    Profile.HasProfile = HasProfile != 0;
    Profile.EdgeCounts.resize(NumCounts);
    for (uint64_t &Count : Profile.EdgeCounts)
      if (!R.u64(Count))
        return DecodeStatus::Truncated;
  }

  uint64_t NumFunctions;
  if (!R.count(NumFunctions, MinInstrInfoBytes))
    return DecodeStatus::Truncated;
  S.Instr.resize(NumFunctions);
  for (prof::FunctionInstrInfo &Info : S.Instr) {
    uint8_t Instrumented, HasPathProfile, Hashed;
    uint64_t KIters, Stride, NumChords, NumSites;
    if (!R.u8(Instrumented) || !R.u8(HasPathProfile) ||
        !R.u64(Info.NumPaths) || !R.u8(Hashed) || !R.u64(KIters) ||
        !R.u64(Info.TableAddr) || !R.u64(Stride) ||
        !R.u64(Info.EdgeTableAddr) || !R.count(NumChords, 8))
      return DecodeStatus::Truncated;
    if (KIters == 0)
      return DecodeStatus::Malformed;
    Info.Instrumented = Instrumented != 0;
    Info.HasPathProfile = HasPathProfile != 0;
    Info.Hashed = Hashed != 0;
    Info.KIters = static_cast<unsigned>(KIters);
    Info.Stride = static_cast<unsigned>(Stride);
    Info.ChordEdges.resize(NumChords);
    for (unsigned &Edge : Info.ChordEdges) {
      uint64_t Value;
      if (!R.u64(Value))
        return DecodeStatus::Truncated;
      Edge = static_cast<unsigned>(Value);
    }
    if (!R.u64(NumSites) || !R.bytes(Info.SiteIsIndirect))
      return DecodeStatus::Truncated;
    Info.NumSites = static_cast<unsigned>(NumSites);
  }
  return DecodeStatus::Ok;
}

} // namespace

const char *profdb::decodeStatusName(DecodeStatus Status) {
  switch (Status) {
  case DecodeStatus::Ok:
    return "ok";
  case DecodeStatus::Unreadable:
    return "unreadable";
  case DecodeStatus::TooShort:
    return "too-short";
  case DecodeStatus::BadMagic:
    return "bad-magic";
  case DecodeStatus::BadVersion:
    return "bad-version";
  case DecodeStatus::BadChecksum:
    return "bad-checksum";
  case DecodeStatus::Truncated:
    return "truncated";
  case DecodeStatus::Malformed:
    return "malformed";
  case DecodeStatus::TrailingBytes:
    return "trailing-bytes";
  }
  return "unknown";
}

uint64_t profdb::fnv1a(const std::string &Text) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (char C : Text) {
    Hash ^= static_cast<uint8_t>(C);
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

std::vector<uint8_t> profdb::encodeArtifact(const Artifact &A) {
  ByteWriter W;
  W.u64(Magic);
  W.u64(Version);
  W.str(A.Fingerprint);
  W.u64(A.SourceHash);
  W.u64(A.RunCount);
  W.str(A.Workload);
  W.u64(A.Scale);
  W.str(A.Schema.Mode);
  W.str(A.Schema.Pic0);
  W.str(A.Schema.Pic1);
  W.str(A.Schema.Acquisition);
  W.u64(A.Schema.K);
  W.u64(A.ExecutedInsts);

  W.u64(hw::NumEvents);
  for (uint64_t Total : A.Totals)
    W.u64(Total);

  W.u64(A.Functions.size());
  for (const std::string &Name : A.Functions)
    W.str(Name);

  W.u64(A.PathProfiles.size());
  for (const prof::FunctionPathProfile &Profile : A.PathProfiles) {
    W.u64(Profile.FuncId);
    W.u8(Profile.HasProfile ? 1 : 0);
    W.u64(Profile.NumPaths);
    W.u8(Profile.Hashed ? 1 : 0);
    W.u64(Profile.KIters);
    W.u64(Profile.Paths.size());
    for (const prof::PathEntry &Entry : Profile.Paths) {
      W.u64(Entry.PathSum);
      W.u64(Entry.Freq);
      W.u64(Entry.Metric0);
      W.u64(Entry.Metric1);
    }
  }

  W.u8(A.Tree ? 1 : 0);
  if (A.Tree)
    cct::writeTreeImage(W, A.Tree->image());
  if (A.Run)
    writeRunSection(W, *A.Run);

  // Integrity trailer over everything above.
  uint32_t Crc = crc32(W.Bytes.data(), W.Bytes.size());
  for (unsigned Index = 0; Index != 4; ++Index)
    W.u8(static_cast<uint8_t>(Crc >> (8 * Index)));
  obs::add(obs::Counter::ProfDbBytesEncoded, W.Bytes.size());
  return std::move(W.Bytes);
}

DecodeStatus profdb::decodeArtifact(const std::vector<uint8_t> &Bytes,
                                    Artifact &Out) {
  obs::add(obs::Counter::ProfDbBytesDecoded, Bytes.size());
  // Fixed header (magic + version + fingerprint length) plus CRC trailer.
  if (Bytes.size() < 3 * 8 + 4)
    return DecodeStatus::TooShort;

  // Identify the format before checksumming, so a foreign or
  // future-versioned file reports its real problem, not a CRC error.
  ByteReader Header(Bytes.data(), Bytes.size());
  uint64_t FileMagic, FileVersion;
  (void)Header.u64(FileMagic);
  (void)Header.u64(FileVersion);
  if (FileMagic != Magic)
    return DecodeStatus::BadMagic;
  // Version 1 predates the acquisition schema field (those artifacts are
  // all exact) and version 2 predates k-BL (all classic k=1); both decode
  // with the defaults.
  if (FileVersion != Version && FileVersion != 1 && FileVersion != 2)
    return DecodeStatus::BadVersion;

  size_t PayloadSize = Bytes.size() - 4;
  uint32_t Stored = 0;
  for (unsigned Index = 0; Index != 4; ++Index)
    Stored |= uint32_t(Bytes[PayloadSize + Index]) << (8 * Index);
  if (crc32(Bytes.data(), PayloadSize) != Stored)
    return DecodeStatus::BadChecksum;

  ByteReader R(Bytes.data(), PayloadSize);
  uint64_t Skip;
  (void)R.u64(Skip); // magic, validated above
  (void)R.u64(Skip); // version, validated above

  if (!R.str(Out.Fingerprint) || !R.u64(Out.SourceHash) ||
      !R.u64(Out.RunCount) || !R.str(Out.Workload) || !R.u64(Out.Scale) ||
      !R.str(Out.Schema.Mode) || !R.str(Out.Schema.Pic0) ||
      !R.str(Out.Schema.Pic1))
    return DecodeStatus::Truncated;
  Out.Schema.Acquisition = "exact";
  if (FileVersion >= 2 && !R.str(Out.Schema.Acquisition))
    return DecodeStatus::Truncated;
  Out.Schema.K = 1;
  if (FileVersion >= 3) {
    uint64_t K;
    if (!R.u64(K))
      return DecodeStatus::Truncated;
    if (K == 0)
      return DecodeStatus::Malformed;
    Out.Schema.K = static_cast<unsigned>(K);
  }
  if (!R.u64(Out.ExecutedInsts))
    return DecodeStatus::Truncated;

  uint64_t NumTotals;
  if (!R.u64(NumTotals))
    return DecodeStatus::Truncated;
  if (NumTotals != hw::NumEvents)
    return DecodeStatus::Malformed;
  for (uint64_t &Total : Out.Totals)
    if (!R.u64(Total))
      return DecodeStatus::Truncated;

  uint64_t NumFunctions;
  if (!R.count(NumFunctions, MinFunctionBytes))
    return DecodeStatus::Truncated;
  Out.Functions.resize(NumFunctions);
  for (std::string &Name : Out.Functions)
    if (!R.str(Name))
      return DecodeStatus::Truncated;

  uint64_t NumPathProfiles;
  if (!R.count(NumPathProfiles, MinPathProfileBytes))
    return DecodeStatus::Truncated;
  Out.PathProfiles.resize(NumPathProfiles);
  for (prof::FunctionPathProfile &Profile : Out.PathProfiles) {
    uint64_t FuncId, NumEntries;
    uint8_t HasProfile, Hashed;
    if (!R.u64(FuncId) || !R.u8(HasProfile) || !R.u64(Profile.NumPaths) ||
        !R.u8(Hashed))
      return DecodeStatus::Truncated;
    Profile.KIters = 1;
    if (FileVersion >= 3) {
      uint64_t KIters;
      if (!R.u64(KIters))
        return DecodeStatus::Truncated;
      if (KIters == 0)
        return DecodeStatus::Malformed;
      Profile.KIters = static_cast<unsigned>(KIters);
    }
    if (!R.count(NumEntries, MinPathEntryBytes))
      return DecodeStatus::Truncated;
    Profile.FuncId = static_cast<unsigned>(FuncId);
    Profile.HasProfile = HasProfile != 0;
    Profile.Hashed = Hashed != 0;
    Profile.Paths.resize(NumEntries);
    for (prof::PathEntry &Entry : Profile.Paths)
      if (!R.u64(Entry.PathSum) || !R.u64(Entry.Freq) ||
          !R.u64(Entry.Metric0) || !R.u64(Entry.Metric1))
        return DecodeStatus::Truncated;
  }

  uint8_t HasTree;
  if (!R.u8(HasTree))
    return DecodeStatus::Truncated;
  Out.Tree = nullptr;
  if (HasTree) {
    cct::TreeImage Image;
    switch (cct::readTreeImage(R, Image)) {
    case cct::ImageDecodeStatus::Ok:
      break;
    case cct::ImageDecodeStatus::Truncated:
      return DecodeStatus::Truncated;
    case cct::ImageDecodeStatus::Malformed:
      return DecodeStatus::Malformed;
    }
    Out.Tree = cct::CallingContextTree::fromImage(Image);
    if (!Out.Tree)
      return DecodeStatus::Malformed;
  }

  // Anything after the tree is either the tagged run section or trailing
  // garbage.
  Out.Run.reset();
  ByteReader Tag = R;
  uint64_t TagValue;
  if (Tag.u64(TagValue) && TagValue == RunTag) {
    R = Tag;
    DecodeStatus Status = readRunSection(R, Out.Run.emplace());
    if (Status != DecodeStatus::Ok)
      return Status;
  }
  return R.atEnd() ? DecodeStatus::Ok : DecodeStatus::TrailingBytes;
}

std::vector<std::string> profdb::functionNames(const ir::Module &M) {
  std::vector<std::string> Names;
  Names.reserve(M.numFunctions());
  for (size_t Id = 0; Id != M.numFunctions(); ++Id)
    Names.push_back(M.function(Id)->name());
  return Names;
}

Artifact profdb::artifactFromOutcome(const prof::RunOutcome &Outcome,
                                     const ir::Module &M,
                                     const std::string &Fingerprint,
                                     const std::string &Workload,
                                     uint64_t Scale,
                                     const prof::ProfileConfig &Config,
                                     const std::string &Acquisition) {
  return artifactFromOutcome(Outcome, functionNames(M), Fingerprint,
                             Workload, Scale, Config, Acquisition);
}

Artifact profdb::artifactFromOutcome(const prof::RunOutcome &Outcome,
                                     std::vector<std::string> Functions,
                                     const std::string &Fingerprint,
                                     const std::string &Workload,
                                     uint64_t Scale,
                                     const prof::ProfileConfig &Config,
                                     const std::string &Acquisition) {
  Artifact A;
  A.Fingerprint = Fingerprint;
  A.SourceHash = fnv1a(Fingerprint);
  A.RunCount = 1;
  A.Workload = Workload;
  A.Scale = Scale;
  A.Schema.Mode = prof::modeName(Config.M);
  A.Schema.Pic0 = hw::eventName(Config.Pic0);
  A.Schema.Pic1 = hw::eventName(Config.Pic1);
  A.Schema.Acquisition = Acquisition;
  A.Schema.K = Config.K;
  A.ExecutedInsts = Outcome.Result.ExecutedInsts;
  A.Totals = Outcome.Totals;
  A.Functions = std::move(Functions);
  A.PathProfiles = Outcome.PathProfiles;
  if (Outcome.Tree)
    A.Tree = cct::CallingContextTree::fromImage(Outcome.Tree->image());
  return A;
}

Artifact profdb::cloneArtifact(const Artifact &A) {
  Artifact Copy;
  Copy.Fingerprint = A.Fingerprint;
  Copy.SourceHash = A.SourceHash;
  Copy.RunCount = A.RunCount;
  Copy.Workload = A.Workload;
  Copy.Scale = A.Scale;
  Copy.Schema = A.Schema;
  Copy.ExecutedInsts = A.ExecutedInsts;
  Copy.Totals = A.Totals;
  Copy.Functions = A.Functions;
  Copy.PathProfiles = A.PathProfiles;
  if (A.Tree)
    Copy.Tree = cct::CallingContextTree::fromImage(A.Tree->image());
  Copy.Run = A.Run;
  return Copy;
}
