//===- collectd/MergeTree.h - Windowed incremental merging -----*- C++ -*-===//
///
/// \file
/// The fleet collector's per-window accumulator: the running fold of one
/// schema group's accepted profile artifacts, held in exactly one of two
/// forms. As an artifact: the first upload as it arrived, or the fold's
/// last emission. Or in profdb's merge form (profdb::MergeForm), into
/// which each accepted upload is lifted and overlaid in place, then
/// dropped. An add therefore costs a lift of the upload plus a merge walk
/// over the fold vertices it reaches (their edges and path cells) and
/// over the path tables, never a re-merge of the whole fold; only the
/// first add after the fold was emitted also lifts the fold back.
/// folded() emits the merge form into an artifact on demand.
///
/// Determinism: the fold is byte-identical to the serial left fold of its
/// leaves through profdb::mergeArtifacts — the same lift, overlay and
/// emit — and, because pairwise merging is associative and commutative
/// with canonical re-emission (see profdb/Merge.h), to a flat mergeAll of
/// them, for any upload arrival order and any ingest thread count.
/// CollectdTest pins both by shuffling arrivals and comparing bytes.
///
//===----------------------------------------------------------------------===//

#ifndef PP_COLLECTD_MERGETREE_H
#define PP_COLLECTD_MERGETREE_H

#include "profdb/Merge.h"

#include <optional>
#include <string>

namespace pp {
namespace collectd {

/// One schema group's fold within one time window. Not thread-safe; the
/// ingest service serializes access per window.
class MergeTree {
public:
  MergeTree() = default;
  /// Both arguments are ignored. The form is kept for callers written
  /// against the former level-compacting tree (perfbench constructs
  /// MergeTree(8, 1)).
  MergeTree(unsigned /*Fanout*/, unsigned /*MergeThreads*/) {}

  /// Folds \p A into the tree. The add is transactional: \p A is lifted
  /// (which rejects any shape a profiling run cannot produce) and then
  /// overlaid onto the fold, and overlay checks every rule that compares
  /// two profiles before it changes anything. A merge-incompatible
  /// artifact — structural corruption that slipped past the decoder, or a
  /// shape the group key does not distinguish — therefore surfaces as
  /// false + \p Error on *this* add, and leaves the tree (and its folded
  /// bytes) exactly as if the artifact was never offered.
  bool add(profdb::Artifact A, std::string &Error);

  /// The fold of everything added so far: the first leaf itself, then the
  /// emitted merge of every leaf (bit-identical to the left fold and to a
  /// flat mergeAll of the leaves, as CollectdTest pins). Emitted on the
  /// first call after an add, which turns the fold into that artifact
  /// until the next add. Null (with \p Error set) only when the tree is
  /// empty.
  const profdb::Artifact *folded(std::string &Error);

  /// Total artifacts accepted into the tree.
  uint64_t leafCount() const { return Leaves; }
  /// Folds currently resident: one, once anything was accepted.
  size_t residentArtifacts() const { return Leaves ? 1 : 0; }

private:
  uint64_t Leaves = 0;
  /// The fold, when it is held as an artifact: the first leaf as it
  /// arrived, or folded()'s emission, until the next add.
  std::optional<profdb::Artifact> Cached;
  /// The fold in merge form; meaningful only when Leaves != 0 and Cached
  /// is empty.
  profdb::MergeForm Fold;
};

} // namespace collectd
} // namespace pp

#endif // PP_COLLECTD_MERGETREE_H
