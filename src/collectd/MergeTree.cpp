//===- collectd/MergeTree.cpp - Windowed incremental merging ------------------===//

#include "collectd/MergeTree.h"

#include <cassert>

using namespace pp;
using namespace pp::collectd;

bool MergeTree::add(profdb::Artifact A, std::string &Error) {
  // Every rule that can refuse A runs inside lift or overlay before the
  // fold changes, so a failure rejects this one add with the tree intact.
  profdb::MergeForm Leaf;
  if (!profdb::MergeForm::lift(A, Leaf, Error))
    return false;
  if (!Leaves) {
    // A window of one upload folds to that upload, byte for byte, less
    // any run section: folds hold profiles only.
    Cached = std::move(A);
    Cached->Run.reset();
  } else if (Cached) {
    // The fold is held as an artifact; lift it back to overlay onto it.
    profdb::MergeForm Lifted;
    [[maybe_unused]] bool Ok = profdb::MergeForm::lift(*Cached, Lifted, Error);
    assert(Ok && "an accepted upload or an emitted fold always lifts");
    if (!Lifted.overlay(std::move(Leaf), Error))
      return false;
    Fold = std::move(Lifted);
    Cached.reset();
  } else if (!Fold.overlay(std::move(Leaf), Error)) {
    return false;
  }
  ++Leaves;
  return true;
}

const profdb::Artifact *MergeTree::folded(std::string &Error) {
  if (!Leaves) {
    Error = "empty merge tree";
    return nullptr;
  }
  if (!Cached)
    Cached = std::move(Fold).emit();
  return &*Cached;
}
