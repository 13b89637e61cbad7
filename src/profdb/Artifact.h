//===- profdb/Artifact.h - Persistent profile artifacts --------*- C++ -*-===//
///
/// \file
/// The profile repository's unit of storage: one self-describing,
/// CRC32-trailed binary artifact bundling everything a run's profile
/// contains — the run's identity (RunKey fingerprint), the metric schema
/// (mode + PIC routing, so readers can refuse to mix incompatible
/// measurements), the hardware-event totals, the per-procedure Ball-Larus
/// path tables, and the full calling context tree. Unlike the driver's
/// run cache (a private memo, rebuilt at will), artifacts are durable
/// data meant to outlive the process, travel between machines, and be
/// merged, diffed, and queried by tools/pp-report.
///
/// An artifact may also carry a run section: the rest of a RunOutcome
/// (the run's result, edge profiles, instrumentation metadata and
/// acquisition stats). The driver's disk cache stores each run as an
/// artifact with that section, so one codec serves both the cache and
/// the repository. The section follows the CCT, opened by a tag, and is
/// written only when present: an artifact without it keeps its bytes.
/// Merge, fold and diff drop it; only a single run has one.
///
/// Trust model: artifacts are untrusted input. The decoder is fully
/// bounds-checked (remaining()-based length checks, count caps before
/// any allocation, CCT geometry ceilings) and returns a typed
/// DecodeStatus instead of crashing or silently loading a corrupt file.
///
//===----------------------------------------------------------------------===//

#ifndef PP_PROFDB_ARTIFACT_H
#define PP_PROFDB_ARTIFACT_H

#include "cct/CallingContextTree.h"
#include "prof/Session.h"

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace pp {
namespace ir {
class Module;
} // namespace ir

namespace profdb {

/// What the artifact's metrics mean. Two artifacts may only be merged or
/// diffed when their schemas are identical — summing D-cache misses into
/// branch mispredicts would silently corrupt both.
struct MetricSchema {
  /// prof::modeName of the run ("Flow and HW", "Context and Flow", ...).
  std::string Mode;
  /// hw::eventName routed to PIC0 / PIC1 ("Insts", "DC RdMiss", ...).
  std::string Pic0;
  std::string Pic1;
  /// prof::acquisitionName of the run ("exact"/"overflow"). Exact counts
  /// and sampled estimates must never be merged or diffed against each
  /// other, so acquisition is part of the schema, like the mode.
  std::string Acquisition = "exact";
  /// Requested k-BL iteration count of the run (1 = classic Ball-Larus).
  /// A k=2 window sum and a k=1 path sum occupy different id spaces, so k
  /// is part of the schema: cross-k artifacts refuse to merge or diff.
  unsigned K = 1;

  bool operator==(const MetricSchema &Other) const {
    return Mode == Other.Mode && Pic0 == Other.Pic0 && Pic1 == Other.Pic1 &&
           Acquisition == Other.Acquisition && K == Other.K;
  }
  bool operator!=(const MetricSchema &Other) const {
    return !(*this == Other);
  }
};

/// What a single run produced beyond its profile; with it, an artifact
/// holds a whole prof::RunOutcome except the instrumented module.
struct RunSection {
  /// vm::RunResult's fields, except ExecutedInsts, which every artifact
  /// carries.
  bool Ok = true;
  uint64_t ExitValue = 0;
  std::string Error;
  /// Edge-mode profiles, indexed by function id.
  std::vector<prof::EdgeProfile> EdgeProfiles;
  /// Instrumentation metadata, indexed by function id. Only the plain
  /// fields persist: F and KPaths decode as null.
  std::vector<prof::FunctionInstrInfo> Instr;
  prof::AcquisitionStats Acq;
};

/// One stored profile: a single run's, or the merge of many.
struct Artifact {
  /// The RunKey fingerprint of the run, or a symmetric "merged;..."
  /// fingerprint for merged artifacts (see Merge.h).
  std::string Fingerprint;
  /// XOR of the FNV-1a hashes of the constituent runs' fingerprints —
  /// order-independent, so any merge order yields the same identity.
  uint64_t SourceHash = 0;
  /// Number of runs folded into this artifact (1 for a fresh one).
  uint64_t RunCount = 1;

  std::string Workload;
  uint64_t Scale = 1;
  MetricSchema Schema;

  /// Sum of executed instructions over the constituent runs.
  uint64_t ExecutedInsts = 0;
  /// Elementwise sums of the runs' ground-truth event totals.
  std::array<uint64_t, hw::NumEvents> Totals{};

  /// Function names, indexed by function id (the ids path profiles and
  /// CCT ProcIds refer to).
  std::vector<std::string> Functions;

  /// Flow-mode path profiles, indexed by function id.
  std::vector<prof::FunctionPathProfile> PathProfiles;

  /// The CCT (context modes); null otherwise.
  std::unique_ptr<cct::CallingContextTree> Tree;

  /// The run section (run cache entries only).
  std::optional<RunSection> Run;

  Artifact() = default;
  Artifact(Artifact &&) = default;
  Artifact &operator=(Artifact &&) = default;
};

/// Why an artifact failed to decode.
enum class DecodeStatus : unsigned {
  Ok = 0,
  /// The file cannot be opened or read at all.
  Unreadable,
  /// Too small to even hold the fixed header and CRC trailer.
  TooShort,
  BadMagic,
  BadVersion,
  /// The CRC32 trailer does not match the payload.
  BadChecksum,
  /// A length or count field exceeds the bytes remaining.
  Truncated,
  /// A field holds a structurally impossible value.
  Malformed,
  /// Valid payload followed by unexplained extra bytes.
  TrailingBytes,
};
constexpr unsigned NumDecodeStatuses =
    static_cast<unsigned>(DecodeStatus::TrailingBytes) + 1;

/// Human-readable name for diagnostics.
const char *decodeStatusName(DecodeStatus Status);

/// FNV-1a hash of \p Text (the same function RunKey uses), for artifact
/// file names and merged-source identities.
uint64_t fnv1a(const std::string &Text);

/// Serialises \p A into the versioned, CRC32-trailed artifact format.
std::vector<uint8_t> encodeArtifact(const Artifact &A);

/// Decodes an artifact; on failure \p Out is unspecified and must be
/// discarded.
DecodeStatus decodeArtifact(const std::vector<uint8_t> &Bytes, Artifact &Out);

/// The names of \p M's functions, indexed by function id.
std::vector<std::string> functionNames(const ir::Module &M);

/// Packages a successful run's outcome as a fresh artifact, without a run
/// section. \p Functions names the run's functions by id;
/// \p Fingerprint is the run's RunKey fingerprint.
Artifact artifactFromOutcome(const prof::RunOutcome &Outcome,
                             std::vector<std::string> Functions,
                             const std::string &Fingerprint,
                             const std::string &Workload, uint64_t Scale,
                             const prof::ProfileConfig &Config,
                             const std::string &Acquisition = "exact");
/// The same, naming the functions after \p M, the module the run executed.
Artifact artifactFromOutcome(const prof::RunOutcome &Outcome,
                             const ir::Module &M,
                             const std::string &Fingerprint,
                             const std::string &Workload, uint64_t Scale,
                             const prof::ProfileConfig &Config,
                             const std::string &Acquisition = "exact");

/// Deep copy (the CCT makes Artifact move-only).
Artifact cloneArtifact(const Artifact &A);

} // namespace profdb
} // namespace pp

#endif // PP_PROFDB_ARTIFACT_H
