//===- profdb/Merge.cpp - Structural profile merging --------------------------===//

#include "profdb/Merge.h"

#include "cct/CallingContextTree.h"
#include "obs/Obs.h"
#include "support/Env.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace pp;
using namespace pp::profdb;

unsigned profdb::mergeThreadsFromEnv() {
  uint64_t Value;
  if (envUint64("PP_PROFDB_THREADS", "pp-profdb", Value) == EnvParse::Ok)
    return static_cast<unsigned>(
        std::max<uint64_t>(1, std::min<uint64_t>(Value, 64)));
  if (envFlag("PP_DRIVER_SERIAL", "pp-profdb"))
    return 1;
  // The driver fallback parses just as strictly: a malformed
  // PP_DRIVER_THREADS used to be skipped silently here while the
  // scheduler warned about the same variable — now both warn.
  if (envUint64("PP_DRIVER_THREADS", "pp-profdb", Value) == EnvParse::Ok)
    return static_cast<unsigned>(
        std::max<uint64_t>(1, std::min<uint64_t>(Value, 64)));
  unsigned Hardware = std::thread::hardware_concurrency();
  return std::clamp(Hardware ? Hardware : 4u, 4u, 16u);
}

namespace pp {
namespace profdb {

/// The merge-time view of one CCT vertex. Its slots are implicit — the
/// procedure fixes how many there are and which are lists — and only the
/// resolved ones appear, as edges sorted by (slot, callee): the canonical
/// order emit replays them in, whatever order the shards presented their
/// records in.
struct MergeNode {
  cct::ProcId Proc = cct::RootProcId;
  std::vector<uint64_t> Metrics;
  /// Per-path counters, ascending by path sum.
  std::vector<std::pair<uint64_t, cct::PathCell>> Cells;

  /// One resolved callee of one slot: a child record, or a recursion
  /// backedge to the ancestor Distance levels up (0 = this record).
  struct Edge {
    /// (slot << 32) | callee: edges ascend by it.
    uint64_t Key = 0;
    uint32_t Distance = 0;
    std::unique_ptr<MergeNode> Child;

    uint32_t slot() const { return static_cast<uint32_t>(Key >> 32); }
    cct::ProcId callee() const { return static_cast<cct::ProcId>(Key); }
  };
  std::vector<Edge> Edges;
};

} // namespace profdb
} // namespace pp

namespace {

using CCT = cct::CallingContextTree;
static_assert(CCT::ListCellBytes % CCT::HeapAlign == 0,
              "list cells are counted unpadded");

/// The CCT geometry a lifted tree is read against. The record layout is
/// CallingContextTree's (numSlots, isListSlot, footprint).
struct Geometry {
  const std::vector<cct::ProcDesc> &Procs;
  unsigned NumMetrics;
  unsigned PathCellBytes;
  uint64_t HashThreshold;

  /// Heap bytes emit() allocates for \p N's subtree: each record, its path
  /// table, and one cell per list entry, every allocation rounded up to
  /// the allocator's alignment. A path table counts at most the whole
  /// heap, so the sum cannot wrap.
  uint64_t subtreeHeapBytes(const MergeNode &N) const {
    auto Aligned = [](uint64_t Bytes) {
      return (Bytes + CCT::HeapAlign - 1) & ~(CCT::HeapAlign - 1);
    };
    CCT::RecordFootprint F = CCT::footprint(Procs, N.Proc, NumMetrics,
                                            PathCellBytes, HashThreshold);
    uint64_t Bytes = Aligned(F.RecordBytes);
    if (F.HasPathTable)
      Bytes += Aligned(std::min(F.PathTableBytes, CCT::HeapCapacity));
    for (const MergeNode::Edge &E : N.Edges) {
      if (CCT::isListSlot(Procs, N.Proc, E.slot()))
        Bytes += CCT::ListCellBytes;
      if (E.Child)
        Bytes += subtreeHeapBytes(*E.Child);
    }
    return Bytes;
  }
};

/// Sums the ascending, key-unique \p B into the ascending, key-unique
/// \p A by \p Key in one merge walk, adding matched entries with \p Add;
/// \p B's entries may be moved from.
template <typename T, typename KeyFn, typename AddFn>
void sumSorted(std::vector<T> &A, std::vector<T> &B, KeyFn Key, AddFn Add) {
  if (B.empty())
    return;
  std::vector<T> Merged;
  Merged.reserve(A.size() + B.size());
  size_t IA = 0, IB = 0;
  while (IA != A.size() || IB != B.size()) {
    if (IB == B.size() || (IA != A.size() && Key(A[IA]) < Key(B[IB]))) {
      Merged.push_back(std::move(A[IA++]));
    } else if (IA == A.size() || Key(B[IB]) < Key(A[IA])) {
      Merged.push_back(std::move(B[IB++]));
    } else {
      Merged.push_back(std::move(A[IA++]));
      Add(Merged.back(), B[IB++]);
    }
  }
  A = std::move(Merged);
}

/// Lifts \p Image into the merge structure, taking its records' metric
/// and cell vectors. Rejects every image CallingContextTree::enter()
/// could not have built, so that overlaying and emitting lifted trees
/// cannot fail:
///   - records whose slot count or slot kinds disagree with their
///     procedure (as makeRecord lays a record out);
///   - edges that do not form a tree with backedges;
///   - a child whose procedure is its owner's or an ancestor's (enter()
///     resolves that call to the ancestor, as recursion).
/// The last rule makes the procedures on every root path distinct, so a
/// backedge's ancestor — and with it its distance — follows from the
/// path alone, and two trees agree on it wherever they share a path.
bool liftTree(cct::TreeImage &Image, const Geometry &G,
              std::unique_ptr<MergeNode> &Out, std::string &Error) {
  auto &Records = Image.Records;
  if (Records.empty() || Records[0].Proc != cct::RootProcId ||
      Records[0].Parent != -1) {
    Error = "tree has no root record";
    return false;
  }
  size_t N = Records.size();
  std::vector<std::unique_ptr<MergeNode>> Owned(N);
  std::vector<MergeNode *> Node(N);
  std::vector<unsigned> Depth(N, 0);
  for (size_t Index = 0; Index != N; ++Index) {
    cct::TreeImage::Record &Rec = Records[Index];
    if (Rec.Metrics.size() != Image.NumMetrics) {
      Error = "record metric vector disagrees with the tree's metric count";
      return false;
    }
    if (Index != 0) {
      if (Rec.Parent < 0 || static_cast<size_t>(Rec.Parent) >= Index) {
        Error = "record parents do not precede their children";
        return false;
      }
      if (Rec.Proc >= Image.Procs.size()) {
        Error = "record names no procedure of the tree";
        return false;
      }
      for (int64_t Up = Rec.Parent; Up >= 0; Up = Records[Up].Parent)
        if (Records[Up].Proc == Rec.Proc) {
          Error = "child callee collides with an ancestor";
          return false;
        }
      Depth[Index] = Depth[static_cast<size_t>(Rec.Parent)] + 1;
    }
    if (Rec.Slots.size() != CCT::numSlots(G.Procs, Rec.Proc)) {
      Error = "record slot count disagrees with its procedure's call sites";
      return false;
    }
    Owned[Index] = std::make_unique<MergeNode>();
    Node[Index] = Owned[Index].get();
    Node[Index]->Proc = Rec.Proc;
    Node[Index]->Metrics = std::move(Rec.Metrics);
    // image() lists a record's cells once each, ascending by path sum.
    Node[Index]->Cells = std::move(Rec.PathCells);
  }

  using Kind = cct::CallRecord::Slot::Kind;
  std::vector<uint8_t> Placed(N, 0);
  for (size_t Index = 0; Index != N; ++Index) {
    const cct::TreeImage::Record &Rec = Records[Index];
    std::vector<MergeNode::Edge> &Edges = Node[Index]->Edges;
    for (size_t S = 0; S != Rec.Slots.size(); ++S) {
      const cct::TreeImage::Slot &From = Rec.Slots[S];
      bool List = CCT::isListSlot(G.Procs, Rec.Proc, S);
      Kind K = static_cast<Kind>(From.Kind);
      if (List != (K == Kind::List)) {
        Error = "call-site slot kind disagrees with its procedure (direct "
                "vs indirect)";
        return false;
      }
      if (!List && From.Targets.size() != (K == Kind::Record ? 1 : 0)) {
        Error = "direct call-site slot does not hold exactly its one callee";
        return false;
      }
      size_t First = Edges.size();
      for (const auto &[Target, CellAddr] : From.Targets) {
        (void)CellAddr; // list-cell addresses are reassigned canonically
        if (Target >= N) {
          Error = "slot target out of range";
          return false;
        }
        MergeNode::Edge E;
        E.Key = uint64_t(S) << 32 | Records[Target].Proc;
        if (Target != Index &&
            Records[Target].Parent == static_cast<int64_t>(Index)) {
          // Tree edge: this slot owns the child.
          if (Placed[Target]) {
            Error = "record claimed as a child by two slots";
            return false;
          }
          E.Child = std::move(Owned[Target]);
          Placed[Target] = 1;
        } else {
          // Must be a recursion backedge: the target is the owner or one
          // of its ancestors.
          size_t Walk = Index;
          while (Walk != Target) {
            if (Records[Walk].Parent < 0) {
              Error = "slot target is neither a child nor an ancestor";
              return false;
            }
            Walk = static_cast<size_t>(Records[Walk].Parent);
          }
          E.Distance = Depth[Index] - Depth[Target];
        }
        Edges.push_back(std::move(E));
      }
      // A list is kept most recent first; the merge form keeps callees
      // ascending.
      std::sort(Edges.begin() + First, Edges.end(),
                [](const MergeNode::Edge &L, const MergeNode::Edge &R) {
                  return L.Key < R.Key;
                });
      for (size_t E = First + 1; E < Edges.size(); ++E)
        if (Edges[E - 1].Key == Edges[E].Key) {
          Error = "duplicate callee in one call-site slot";
          return false;
        }
    }
  }
  for (size_t Index = 1; Index != N; ++Index)
    if (!Placed[Index]) {
      Error = "orphan record: no slot of its parent reaches it";
      return false;
    }
  Out = std::move(Owned[0]);
  return true;
}

/// Pairs \p B's vertices with their matches in \p A, depth first, and
/// adds to \p Heap the bytes emit() will allocate for what \p B brings
/// that \p A lacks. The one rule lift() cannot see is checked here: a
/// direct call site both trees resolve must resolve to the same callee.
bool matchTrees(MergeNode &A, MergeNode &B, const Geometry &G,
                std::vector<std::pair<MergeNode *, MergeNode *>> &Pairs,
                uint64_t &Heap, std::string &Error) {
  Pairs.emplace_back(&A, &B);
  size_t IA = 0;
  for (MergeNode::Edge &E : B.Edges) {
    while (IA != A.Edges.size() && A.Edges[IA].Key < E.Key)
      ++IA;
    if (IA != A.Edges.size() && A.Edges[IA].Key == E.Key) {
      // Lift fixed child-or-backedge, and the distance, by the path.
      assert(!E.Child == !A.Edges[IA].Child &&
             E.Distance == A.Edges[IA].Distance);
      if (E.Child &&
          !matchTrees(*A.Edges[IA].Child, *E.Child, G, Pairs, Heap, Error))
        return false;
      continue;
    }
    if (!CCT::isListSlot(G.Procs, B.Proc, E.slot())) {
      // A direct slot holds one callee; A's, if any, sits next to where
      // E would go.
      if ((IA != A.Edges.size() && A.Edges[IA].slot() == E.slot()) ||
          (IA != 0 && A.Edges[IA - 1].slot() == E.slot())) {
        Error = "direct call site resolves to different callees in the two "
                "profiles";
        return false;
      }
    } else {
      Heap += CCT::ListCellBytes;
    }
    if (E.Child)
      Heap += G.subtreeHeapBytes(*E.Child);
  }
  return true;
}

/// Sums matched vertex \p B into \p A and grafts the edges of \p B that
/// \p A lacks. Matched children are summed as pairs of their own.
void sumInto(MergeNode &A, MergeNode &B) {
  for (size_t Index = 0; Index != A.Metrics.size(); ++Index)
    A.Metrics[Index] += B.Metrics[Index];
  sumSorted(
      A.Cells, B.Cells, [](const auto &Cell) { return Cell.first; },
      [](auto &Into, const auto &From) {
        Into.second.Freq += From.second.Freq;
        Into.second.Metric0 += From.second.Metric0;
        Into.second.Metric1 += From.second.Metric1;
      });
  sumSorted(
      A.Edges, B.Edges, [](const MergeNode::Edge &E) { return E.Key; },
      [](MergeNode::Edge &, MergeNode::Edge &) {});
}

/// Replays the merged structure through the real CCT allocator in a
/// canonical order — node, then its edges by ascending (slot, callee) —
/// so addresses, heap usage, and list layout depend only on the merged
/// structure. Takes \p N's metric vectors.
void emitNode(cct::CallingContextTree &Tree, cct::CallRecord *R,
              MergeNode &N) {
  R->Metrics = std::move(N.Metrics);
  for (const auto &[Sum, Cell] : N.Cells)
    R->PathTable.emplace(Sum, Cell);
  for (MergeNode::Edge &E : N.Edges) {
    cct::CallRecord *C = Tree.enter(R, E.slot(), E.callee());
    if (E.Child) {
      assert(C->parent() == R && "lift admits no child that recurses");
      emitNode(Tree, C, *E.Child);
    } else {
      assert(C->depth() + E.Distance == R->depth() &&
             "lift admits only backedges to the unique ancestor");
    }
  }
}

/// Checks that lifted path tables are strictly ascending by path sum, the
/// order every acquisition engine extracts them in and the summing walk
/// relies on.
bool pathsAscend(const std::vector<prof::FunctionPathProfile> &Profiles,
                 std::string &Error) {
  for (const prof::FunctionPathProfile &P : Profiles)
    for (size_t Index = 1; Index < P.Paths.size(); ++Index)
      if (P.Paths[Index - 1].PathSum >= P.Paths[Index].PathSum) {
        Error = formatString("path table of function %u is not strictly "
                             "ascending by path sum",
                             P.FuncId);
        return false;
      }
  return true;
}

/// The shape rules two path-profile sets must agree on to be summed.
bool pathShapesAgree(const std::vector<prof::FunctionPathProfile> &A,
                     const std::vector<prof::FunctionPathProfile> &B,
                     std::string &Error) {
  if (A.size() != B.size()) {
    Error = "path-profile function counts differ";
    return false;
  }
  for (size_t Index = 0; Index != A.size(); ++Index) {
    const prof::FunctionPathProfile &PA = A[Index];
    const prof::FunctionPathProfile &PB = B[Index];
    // Cross-k sums share numeric values but name different paths; refuse
    // with the specific reason before the generic shape complaint.
    if (PA.KIters != PB.KIters) {
      Error = formatString(
          "cannot merge path profiles across k for function %u: "
          "k=%u vs k=%u",
          PA.FuncId, PA.KIters, PB.KIters);
      return false;
    }
    if (PA.FuncId != PB.FuncId || PA.HasProfile != PB.HasProfile ||
        PA.NumPaths != PB.NumPaths || PA.Hashed != PB.Hashed) {
      Error = formatString("path-profile shape differs for function %u",
                           PA.FuncId);
      return false;
    }
  }
  return true;
}

} // namespace

MergeForm::MergeForm() = default;
MergeForm::MergeForm(MergeForm &&) noexcept = default;
MergeForm &MergeForm::operator=(MergeForm &&) noexcept = default;
MergeForm::~MergeForm() = default;

bool MergeForm::lift(const Artifact &A, MergeForm &Out, std::string &Error) {
  if (!pathsAscend(A.PathProfiles, Error))
    return false;
  MergeForm Form;
  Artifact &F = Form.Fields;
  F.SourceHash = A.SourceHash;
  F.RunCount = A.RunCount;
  F.Workload = A.Workload;
  F.Scale = A.Scale;
  F.Schema = A.Schema;
  F.ExecutedInsts = A.ExecutedInsts;
  F.Totals = A.Totals;
  F.Functions = A.Functions;
  F.PathProfiles = A.PathProfiles;
  if (A.Tree) {
    cct::TreeImage Image = A.Tree->image();
    Geometry G{Image.Procs, Image.NumMetrics, Image.PathCellBytes,
               Image.HashThreshold};
    if (!liftTree(Image, G, Form.Root, Error))
      return false;
    Form.HeapBytes = G.subtreeHeapBytes(*Form.Root);
    Form.Procs = std::move(Image.Procs);
    Form.NumMetrics = Image.NumMetrics;
    Form.PathCellBytes = Image.PathCellBytes;
    Form.HashThreshold = Image.HashThreshold;
    if (Form.HeapBytes >= CCT::HeapCapacity) {
      Error = "CCT does not fit the simulated CCT heap";
      return false;
    }
  }
  Out = std::move(Form);
  return true;
}

bool MergeForm::overlay(MergeForm &&Other, std::string &Error) {
  const Artifact &A = Fields;
  Artifact &B = Other.Fields;
  // A k mismatch is a schema mismatch too, but deserves its own message:
  // the artifacts may agree on every metric and still count incomparable
  // path spaces.
  if (A.Schema.K != B.Schema.K) {
    Error = formatString("cannot merge artifacts across k: k=%u vs k=%u",
                         A.Schema.K, B.Schema.K);
    return false;
  }
  if (A.Schema != B.Schema) {
    Error = formatString(
        "incompatible metric schemas: (%s, PIC0=%s, PIC1=%s, acq=%s) vs "
        "(%s, PIC0=%s, PIC1=%s, acq=%s)",
        A.Schema.Mode.c_str(), A.Schema.Pic0.c_str(), A.Schema.Pic1.c_str(),
        A.Schema.Acquisition.c_str(), B.Schema.Mode.c_str(),
        B.Schema.Pic0.c_str(), B.Schema.Pic1.c_str(),
        B.Schema.Acquisition.c_str());
    return false;
  }
  if (A.Workload != B.Workload || A.Scale != B.Scale) {
    Error = formatString("different programs: %s (scale %llu) vs %s "
                         "(scale %llu)",
                         A.Workload.c_str(),
                         static_cast<unsigned long long>(A.Scale),
                         B.Workload.c_str(),
                         static_cast<unsigned long long>(B.Scale));
    return false;
  }
  if (A.Functions != B.Functions) {
    Error = "function tables differ (artifacts come from different module "
            "builds)";
    return false;
  }
  if (static_cast<bool>(Root) != static_cast<bool>(Other.Root)) {
    Error = "one artifact has a CCT and the other does not";
    return false;
  }
  if (!pathShapesAgree(A.PathProfiles, B.PathProfiles, Error))
    return false;

  std::vector<std::pair<MergeNode *, MergeNode *>> Pairs;
  uint64_t Heap = HeapBytes;
  if (Root) {
    if (NumMetrics != Other.NumMetrics ||
        PathCellBytes != Other.PathCellBytes ||
        HashThreshold != Other.HashThreshold) {
      Error = "CCT geometry mismatch (metrics / path-cell stride / hash "
              "threshold)";
      return false;
    }
    if (Procs.size() != Other.Procs.size()) {
      Error = "CCT procedure tables differ";
      return false;
    }
    for (size_t Index = 0; Index != Procs.size(); ++Index) {
      const cct::ProcDesc &PA = Procs[Index];
      const cct::ProcDesc &PB = Other.Procs[Index];
      if (PA.Name != PB.Name || PA.NumSites != PB.NumSites ||
          PA.SiteIsIndirect != PB.SiteIsIndirect ||
          PA.NumPaths != PB.NumPaths) {
        Error = "CCT procedure tables differ";
        return false;
      }
    }
    Geometry G{Procs, NumMetrics, PathCellBytes, HashThreshold};
    if (!matchTrees(*Root, *Other.Root, G, Pairs, Heap, Error))
      return false;
    if (Heap >= CCT::HeapCapacity) {
      Error = "merged CCT does not fit the simulated CCT heap";
      return false;
    }
  }

  // Every rule has passed; nothing below can fail.
  Fields.RunCount += B.RunCount;
  Fields.SourceHash ^= B.SourceHash;
  Fields.ExecutedInsts += B.ExecutedInsts;
  for (size_t Index = 0; Index != Fields.Totals.size(); ++Index)
    Fields.Totals[Index] += B.Totals[Index];
  for (size_t Index = 0; Index != Fields.PathProfiles.size(); ++Index)
    sumSorted(
        Fields.PathProfiles[Index].Paths, B.PathProfiles[Index].Paths,
        [](const prof::PathEntry &E) { return E.PathSum; },
        [](prof::PathEntry &Into, const prof::PathEntry &From) {
          Into.Freq += From.Freq;
          Into.Metric0 += From.Metric0;
          Into.Metric1 += From.Metric1;
        });
  for (const auto &[Into, From] : Pairs)
    sumInto(*Into, *From);
  HeapBytes = Heap;
  return true;
}

Artifact MergeForm::emit() && {
  Artifact Out = std::move(Fields);
  Out.Fingerprint = formatString(
      "merged;v1;runs=%llu;src=%016llx",
      static_cast<unsigned long long>(Out.RunCount),
      static_cast<unsigned long long>(Out.SourceHash));
  if (Root) {
    auto Tree = std::make_unique<cct::CallingContextTree>(
        std::move(Procs), NumMetrics, nullptr, PathCellBytes, HashThreshold);
    emitNode(*Tree, Tree->root(), *Root);
    Out.Tree = std::move(Tree);
    Root.reset();
  }
  return Out;
}

bool profdb::mergeArtifacts(const Artifact &A, const Artifact &B,
                            Artifact &Out, std::string &Error) {
  MergeForm Merged, Other;
  if (!MergeForm::lift(A, Merged, Error) ||
      !MergeForm::lift(B, Other, Error) ||
      !Merged.overlay(std::move(Other), Error))
    return false;
  Out = std::move(Merged).emit();
  return true;
}

bool profdb::mergeAll(std::vector<Artifact> Shards, Artifact &Out,
                      std::string &Error, unsigned Threads) {
  if (Shards.empty()) {
    Error = "no artifacts to merge";
    return false;
  }
  unsigned Wave = 0;
  while (Shards.size() > 1) {
    size_t Pairs = Shards.size() / 2;
    // One span per reduction wave; work = runs folded this wave, which
    // depends only on the shard list, never on Threads.
    obs::SpanScope WaveSpan("profdb", "merge_wave",
                            "wave" + std::to_string(Wave++), 0, Pairs);
    uint64_t WaveRuns = 0;
    for (size_t Pair = 0; Pair != Pairs; ++Pair)
      WaveRuns += Shards[2 * Pair].RunCount + Shards[2 * Pair + 1].RunCount;
    WaveSpan.setWork(WaveRuns);
    obs::add(obs::Counter::ProfDbMerges, Pairs);
    std::vector<Artifact> Next(Pairs + Shards.size() % 2);
    std::vector<std::string> Errors(Pairs);
    std::vector<uint8_t> Failed(Pairs, 0);
    // The (2i, 2i+1) pairing is a function of position only; threads just
    // race through an index counter, so the reduction tree — and with it
    // the merged bytes — cannot depend on the schedule.
    std::atomic<size_t> NextPair{0};
    auto Work = [&] {
      for (;;) {
        size_t Pair = NextPair.fetch_add(1);
        if (Pair >= Pairs)
          return;
        if (!mergeArtifacts(Shards[2 * Pair], Shards[2 * Pair + 1],
                            Next[Pair], Errors[Pair]))
          Failed[Pair] = 1;
      }
    };
    unsigned Spawn = static_cast<unsigned>(
        std::min<size_t>(Threads > 0 ? Threads : 1, Pairs));
    if (Spawn <= 1) {
      Work();
    } else {
      std::vector<std::thread> Workers;
      Workers.reserve(Spawn);
      for (unsigned Index = 0; Index != Spawn; ++Index)
        Workers.emplace_back(Work);
      for (std::thread &Worker : Workers)
        Worker.join();
    }
    for (size_t Pair = 0; Pair != Pairs; ++Pair)
      if (Failed[Pair]) {
        Error = Errors[Pair];
        return false;
      }
    if (Shards.size() % 2)
      Next.back() = std::move(Shards.back());
    Shards = std::move(Next);
  }
  Out = std::move(Shards.front());
  Out.Run.reset(); // a lone shard passes through; merges never keep one
  return true;
}
