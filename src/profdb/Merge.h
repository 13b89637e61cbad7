//===- profdb/Merge.h - Structural profile merging -------------*- C++ -*-===//
///
/// \file
/// Merging of profile artifacts: path profiles are summed entry-by-entry,
/// and CCTs are merged *structurally* — children matched by (call site,
/// callee), recursion backedges preserved by their ancestor distance,
/// metric vectors and per-path counters summed. Each artifact is lifted
/// into a MergeForm, forms are overlaid, and the result is re-emitted
/// canonically (deterministic DFS order through the real CCT allocator),
/// so merging the same artifact set in any order, with any thread count,
/// yields bit-identical bytes; MergeDeterminism tests pin this
/// associativity/commutativity.
///
/// Artifacts with incompatible metric schemas, workloads, or program
/// shapes are rejected with a descriptive error instead of producing a
/// silently meaningless sum.
///
/// mergeAll reduces N shards in O(log N) pairwise waves; the pairs of a
/// wave are independent and run on a small thread pool (PP_PROFDB_THREADS,
/// falling back to the driver's thread knobs). The pairing is fixed by
/// shard position, never by thread schedule, which is what keeps the
/// result thread-count-independent.
///
//===----------------------------------------------------------------------===//

#ifndef PP_PROFDB_MERGE_H
#define PP_PROFDB_MERGE_H

#include "profdb/Artifact.h"

#include <memory>
#include <string>
#include <vector>

namespace pp {
namespace profdb {

/// Worker threads for mergeAll: PP_PROFDB_THREADS when set (0 means
/// serial), else the driver's PP_DRIVER_SERIAL / PP_DRIVER_THREADS
/// convention, else the hardware concurrency clamped to [4, 16]. Always
/// at least 1.
unsigned mergeThreadsFromEnv();

struct MergeNode;

/// An artifact in merge form: its CCT lifted into a tree of vertices
/// whose children are keyed by (call-site slot, callee) and whose
/// recursion backedges are kept by ancestor distance, plus every non-tree
/// field. This is the one merge algorithm: mergeArtifacts lifts both
/// sides, overlays one onto the other and emits the result, and the
/// fleet collector keeps each window's fold of two or more uploads in
/// this form, overlaying one lifted upload at a time and emitting only
/// when asked.
///
/// lift() rejects every shape CallingContextTree::enter() cannot build,
/// so the only rules overlay() still applies are the ones that compare
/// two profiles; it runs them all before it mutates anything, and emit()
/// cannot fail.
class MergeForm {
public:
  MergeForm();
  MergeForm(MergeForm &&) noexcept;
  MergeForm &operator=(MergeForm &&) noexcept;
  ~MergeForm();

  /// Lifts \p A into \p Out. Returns false (and sets \p Error) when \p A
  /// holds a shape a profiling run cannot produce: path entries out of
  /// order, CCT records whose slots disagree with their procedure, a
  /// child that repeats an ancestor's procedure, a backedge to a
  /// non-ancestor, an orphan, or a tree too large for the CCT heap.
  static bool lift(const Artifact &A, MergeForm &Out, std::string &Error);

  /// Sums \p Other into this form, uniting CCT structure. Returns false
  /// (and sets \p Error) when the two profiles are incompatible — schema,
  /// program, function or path-table shape, CCT geometry, a direct call
  /// site resolved to different callees, or a union too large for the CCT
  /// heap; this form is untouched then. \p Other is consumed on success.
  bool overlay(MergeForm &&Other, std::string &Error);

  /// The canonical artifact of this form, which it consumes: a symmetric
  /// "merged;..." fingerprint and the CCT replayed through the real
  /// allocator in ascending (slot, callee) order, so the bytes depend only
  /// on what was summed, never on the order it arrived in. Lifting the
  /// result gives back an equal form.
  Artifact emit() &&;

private:
  /// The artifact's non-tree fields; Fields.Tree stays null and the
  /// fingerprint is derived by emit().
  Artifact Fields;
  /// CCT geometry, meaningful when Root is set.
  std::vector<cct::ProcDesc> Procs;
  unsigned NumMetrics = 0;
  unsigned PathCellBytes = 0;
  uint64_t HashThreshold = 0;
  /// Simulated heap bytes emit() allocates (an upper bound by at most the
  /// alignment slack of one allocation).
  uint64_t HeapBytes = 0;
  /// The lifted CCT; null when the artifact has none.
  std::unique_ptr<MergeNode> Root;
};

/// Merges \p A and \p B into \p Out: lift both, overlay, emit. Returns
/// false (and sets \p Error) when the artifacts are incompatible or
/// structurally inconsistent; \p Out is unspecified then.
bool mergeArtifacts(const Artifact &A, const Artifact &B, Artifact &Out,
                    std::string &Error);

/// Reduces \p Shards to one artifact in O(log N) pairwise waves, the
/// pairs of each wave merged on up to \p Threads threads. The reduction
/// tree depends only on shard positions, so for a fixed input order the
/// bytes are identical under any thread count — and because each pair
/// merge is itself order-canonical, shuffled input orders agree too.
/// The result carries no run section, even for a single shard.
bool mergeAll(std::vector<Artifact> Shards, Artifact &Out, std::string &Error,
              unsigned Threads = 1);

} // namespace profdb
} // namespace pp

#endif // PP_PROFDB_MERGE_H
