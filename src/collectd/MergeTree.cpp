//===- collectd/MergeTree.cpp - Windowed incremental merging ------------------===//

#include "collectd/MergeTree.h"

#include "profdb/Merge.h"

using namespace pp;
using namespace pp::collectd;

bool MergeTree::add(profdb::Artifact A, std::string &Error) {
  // Admission trial: fold the candidate into the running window fold
  // before anything is mutated; a failure rejects this one add with the
  // tree untouched.
  profdb::Artifact NewFold;
  if (!Leaves) {
    // First leaf: self-merge exercises the structural checks the decoder
    // does not make (tree shape, backedge consistency), so a structurally
    // corrupt artifact cannot seed a group it would then poison.
    if (!profdb::mergeArtifacts(A, A, NewFold, Error))
      return false;
    NewFold = profdb::cloneArtifact(A);
  } else if (!profdb::mergeArtifacts(Fold, A, NewFold, Error)) {
    return false;
  }
  ++Leaves;
  Fold = std::move(NewFold);
  return true;
}

const profdb::Artifact *MergeTree::folded(std::string &Error) {
  if (!Leaves) {
    Error = "empty merge tree";
    return nullptr;
  }
  return &Fold;
}
