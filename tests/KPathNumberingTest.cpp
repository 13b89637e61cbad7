//===- tests/KPathNumberingTest.cpp - k-iteration numbering tests -------------===//
//
// The k-BL layer's contract: k = 1 reproduces the legacy numbering value
// for value, window sums decompose into per-level segment values that
// re-sum to the window id, the fallback ladder picks the largest
// non-overflowing k deterministically, and overflowed or misdirected
// queries refuse with a typed status instead of asserting (or worse,
// reading unassigned values in release builds).
//
//===----------------------------------------------------------------------===//

#include "bl/InstrumentationPlan.h"
#include "bl/KPathNumbering.h"
#include "ir/IRBuilder.h"
#include "prof/Session.h"
#include "support/Prng.h"
#include "workloads/Examples.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

using namespace pp;
using namespace pp::ir;

namespace {

/// A chain of \p Diamonds if/else diamonds: path count 2^Diamonds.
std::unique_ptr<Module> buildDiamondChain(int Diamonds) {
  auto M = std::make_unique<Module>();
  Function *F = M->addFunction("main", 0);
  BasicBlock *Prev = F->addBlock("entry");
  IRBuilder IRB(F, Prev);
  Reg C = IRB.movImm(1);
  for (int Step = 0; Step != Diamonds; ++Step) {
    BasicBlock *Left = F->addBlock("l" + std::to_string(Step));
    BasicBlock *Right = F->addBlock("r" + std::to_string(Step));
    BasicBlock *Join = F->addBlock("j" + std::to_string(Step));
    IRB.setBlock(Prev);
    IRB.condBr(C, Left, Right);
    IRB.setBlock(Left);
    IRB.br(Join);
    IRB.setBlock(Right);
    IRB.br(Join);
    Prev = Join;
  }
  IRB.setBlock(Prev);
  IRB.retImm(0);
  M->setMain(F);
  return M;
}

/// A loop whose body is a chain of \p Diamonds diamonds: 2^Diamonds
/// acyclic paths per iteration, so the k-window count scales like
/// 2^(Diamonds*k) and the ladder trips at a predictable k.
std::unique_ptr<Module> buildLoopedDiamonds(int Diamonds,
                                            int64_t Iterations = 8) {
  auto M = std::make_unique<Module>();
  Function *F = M->addFunction("main", 0);
  BasicBlock *Entry = F->addBlock("entry");
  BasicBlock *Head = F->addBlock("head");
  BasicBlock *Done = F->addBlock("done");
  IRBuilder IRB(F, Entry);
  Reg I = IRB.movImm(0);
  IRB.br(Head);
  BasicBlock *Prev = F->addBlock("body");
  IRB.setBlock(Head);
  Reg More = IRB.cmpLtImm(I, Iterations);
  IRB.condBr(More, Prev, Done);
  IRB.setBlock(Prev);
  Reg Parity = IRB.andImm(I, 1);
  for (int Step = 0; Step != Diamonds; ++Step) {
    BasicBlock *Left = F->addBlock("l" + std::to_string(Step));
    BasicBlock *Right = F->addBlock("r" + std::to_string(Step));
    BasicBlock *Join = F->addBlock("j" + std::to_string(Step));
    IRB.condBr(Parity, Left, Right);
    IRB.setBlock(Left);
    IRB.br(Join);
    IRB.setBlock(Right);
    IRB.br(Join);
    IRB.setBlock(Join);
    Prev = Join;
  }
  IRB.setBlock(Prev);
  Reg NextI = IRB.addImm(I, 1);
  IRB.movRegInto(I, NextI);
  IRB.br(Head); // the back edge
  IRB.setBlock(Done);
  IRB.retImm(0);
  M->setMain(F);
  return M;
}

/// entry conditionally branches to itself: the back edge targets the entry
/// block, so its EntryPseudo edge is elided (a self-loop on ENTRY would be
/// cyclic) and the restart value is 0.
std::unique_ptr<Module> buildEntrySelfLoop() {
  auto M = std::make_unique<Module>();
  Function *F = M->addFunction("main", 0);
  BasicBlock *Entry = F->addBlock("entry");
  BasicBlock *Done = F->addBlock("done");
  IRBuilder IRB(F, Entry);
  Reg C = IRB.movImm(0);
  IRB.condBr(C, Entry, Done);
  IRB.setBlock(Done);
  IRB.retImm(0);
  M->setMain(F);
  return M;
}

/// Two sequential loops, so a path can start after one back edge and end
/// with a different one.
std::unique_ptr<Module> buildTwoLoops() {
  auto M = std::make_unique<Module>();
  Function *F = M->addFunction("main", 0);
  BasicBlock *Entry = F->addBlock("entry");
  BasicBlock *H1 = F->addBlock("h1");
  BasicBlock *B1 = F->addBlock("b1");
  BasicBlock *H2 = F->addBlock("h2");
  BasicBlock *B2 = F->addBlock("b2");
  BasicBlock *Done = F->addBlock("done");
  IRBuilder IRB(F, Entry);
  Reg C = IRB.movImm(0);
  IRB.br(H1);
  IRB.setBlock(H1);
  IRB.condBr(C, B1, H2);
  IRB.setBlock(B1);
  IRB.br(H1); // back edge 1
  IRB.setBlock(H2);
  IRB.condBr(C, B2, Done);
  IRB.setBlock(B2);
  IRB.br(H2); // back edge 2
  IRB.setBlock(Done);
  IRB.retImm(0);
  M->setMain(F);
  return M;
}

/// A conditional branch whose arms share the target: two parallel CFG
/// edges whose paths have identical node sequences.
std::unique_ptr<Module> buildParallelEdges() {
  auto M = std::make_unique<Module>();
  Function *F = M->addFunction("main", 0);
  BasicBlock *Entry = F->addBlock("entry");
  BasicBlock *Join = F->addBlock("join");
  IRBuilder IRB(F, Entry);
  Reg C = IRB.movImm(0);
  IRB.condBr(C, Join, Join);
  IRB.setBlock(Join);
  IRB.retImm(0);
  M->setMain(F);
  return M;
}

/// Random function shaped like PathNumberingTest's generator: ret / br /
/// condbr with random targets gives DAGs, nested and irreducible loops.
std::unique_ptr<Module> randomModule(uint64_t Seed, unsigned NumBlocks) {
  Prng R(Seed);
  auto M = std::make_unique<Module>();
  Function *F = M->addFunction("main", 0);
  std::vector<BasicBlock *> Blocks;
  for (unsigned Index = 0; Index != NumBlocks; ++Index)
    Blocks.push_back(F->addBlock("b" + std::to_string(Index)));
  IRBuilder IRB(F);
  for (unsigned Index = 0; Index != NumBlocks; ++Index) {
    IRB.setBlock(Blocks[Index]);
    uint64_t Kind = R.nextBelow(10);
    if (Kind < 2 || NumBlocks == 1) {
      IRB.retImm(0);
      continue;
    }
    Reg C = IRB.movImm(static_cast<int64_t>(R.nextBelow(2)));
    if (Kind < 5) {
      IRB.br(Blocks[R.nextBelow(NumBlocks)]);
    } else {
      BasicBlock *T1 = Blocks[R.nextBelow(NumBlocks)];
      BasicBlock *T2 = Blocks[R.nextBelow(NumBlocks)];
      IRB.condBr(C, T1, T2);
    }
  }
  M->setMain(F);
  return M;
}

unsigned findBackedge(const cfg::Cfg &G) {
  for (unsigned EdgeId = 0; EdgeId != G.numEdges(); ++EdgeId)
    if (G.isBackedge(EdgeId))
      return EdgeId;
  return ~0u;
}

/// The full identity of a window: per segment, the back edges it spans and
/// the ordinary edges it traverses (node lists alone can collide on
/// parallel edges).
std::string windowKey(const std::vector<bl::RegeneratedPath> &Segments) {
  std::string Key;
  for (const bl::RegeneratedPath &Segment : Segments) {
    Key += "S" + std::to_string(Segment.EntryBackedge) + "E" +
           std::to_string(Segment.ExitBackedge);
    for (unsigned EdgeId : Segment.Edges)
      Key += "." + std::to_string(EdgeId);
    Key += "|";
  }
  return Key;
}

uint64_t sumOfSegments(const bl::KPathNumbering &KPN,
                       const std::vector<bl::RegeneratedPath> &Segments) {
  uint64_t Sum = 0;
  for (unsigned Level = 0; Level != Segments.size(); ++Level)
    Sum += KPN.segmentValue(Segments[Level], Level);
  return Sum;
}

} // namespace

// --- Typed refusals on overflowed numberings ---------------------------------

TEST(NumberingQueries, OverflowedNumberingRefusesTyped) {
  // 70 diamonds exceed 2^62 potential paths: no values exist, and every
  // query must say so instead of reading unassigned state.
  auto M = buildDiamondChain(70);
  cfg::Cfg G(*M->main());
  bl::PathNumbering PN(G);
  ASSERT_FALSE(PN.valid());

  uint64_t Value = 0;
  bl::RegeneratedPath Path;
  EXPECT_EQ(PN.tryValueForCfgEdge(0, Value),
            bl::NumberingQueryStatus::Overflowed);
  EXPECT_EQ(PN.tryRegenerate(0, Path), bl::NumberingQueryStatus::Overflowed);
  unsigned Backedge = findBackedge(G);
  if (Backedge != ~0u) {
    EXPECT_EQ(PN.tryBackedgeEndValue(Backedge, Value),
              bl::NumberingQueryStatus::Overflowed);
    EXPECT_EQ(PN.tryBackedgeStartValue(Backedge, Value),
              bl::NumberingQueryStatus::Overflowed);
  }
  EXPECT_STREQ(
      bl::numberingQueryStatusName(bl::NumberingQueryStatus::Overflowed),
      "overflowed");
}

TEST(NumberingQueriesDeathTest, NarrowAccessorsAbortWhenOverflowed) {
  auto M = buildDiamondChain(70);
  cfg::Cfg G(*M->main());
  bl::PathNumbering PN(G);
  ASSERT_FALSE(PN.valid());
  // The narrow accessors promise a value; with none to give, they must die
  // loudly in every build mode, not just under asserts.
  EXPECT_DEATH(PN.valueForCfgEdge(0), "refused: overflowed");
  EXPECT_DEATH(PN.regenerate(0), "refused: overflowed");
}

TEST(NumberingQueries, MisdirectedQueriesRefuseTyped) {
  auto M = workloads::buildLoopModule(10);
  cfg::Cfg G(*M->main());
  bl::PathNumbering PN(G);
  ASSERT_TRUE(PN.valid());

  unsigned Backedge = findBackedge(G);
  ASSERT_NE(Backedge, ~0u);
  unsigned Ordinary = ~0u;
  for (unsigned EdgeId = 0; EdgeId != G.numEdges(); ++EdgeId)
    if (!G.isBackedge(EdgeId))
      Ordinary = EdgeId;
  ASSERT_NE(Ordinary, ~0u);

  uint64_t Value = 0;
  EXPECT_EQ(PN.tryBackedgeEndValue(Ordinary, Value),
            bl::NumberingQueryStatus::NotABackedge);
  EXPECT_EQ(PN.tryBackedgeStartValue(Ordinary, Value),
            bl::NumberingQueryStatus::NotABackedge);
  EXPECT_EQ(PN.tryValueForCfgEdge(Backedge, Value),
            bl::NumberingQueryStatus::IsABackedge);

  bl::RegeneratedPath Path;
  EXPECT_EQ(PN.tryRegenerate(PN.numPaths(), Path),
            bl::NumberingQueryStatus::OutOfRange);
  EXPECT_EQ(PN.tryRegenerate(PN.numPaths() - 1, Path),
            bl::NumberingQueryStatus::Ok);
}

TEST(NumberingQueries, UnreachableEdgeRefusesTyped) {
  auto M = std::make_unique<Module>();
  Function *F = M->addFunction("main", 0);
  BasicBlock *Entry = F->addBlock("entry");
  BasicBlock *Dead = F->addBlock("dead");
  BasicBlock *Done = F->addBlock("done");
  IRBuilder IRB(F, Entry);
  IRB.br(Done);
  IRB.setBlock(Dead); // no predecessors: unreachable from ENTRY
  IRB.br(Done);
  IRB.setBlock(Done);
  IRB.retImm(0);
  M->setMain(F);

  cfg::Cfg G(*F);
  bl::PathNumbering PN(G);
  ASSERT_TRUE(PN.valid());
  unsigned DeadEdge = ~0u;
  for (unsigned EdgeId = 0; EdgeId != G.numEdges(); ++EdgeId)
    if (G.edge(EdgeId).From == 1) // block "dead"
      DeadEdge = EdgeId;
  ASSERT_NE(DeadEdge, ~0u);
  uint64_t Value = 0;
  EXPECT_EQ(PN.tryValueForCfgEdge(DeadEdge, Value),
            bl::NumberingQueryStatus::Unreachable);
}

// --- Pinned corner cases of the numbering core -------------------------------

TEST(PathNumberingCorners, EntrySelfLoopElidesTheEntryPseudoEdge) {
  auto M = buildEntrySelfLoop();
  cfg::Cfg G(*M->main());
  bl::PathNumbering PN(G);
  ASSERT_TRUE(PN.valid());

  unsigned Backedge = findBackedge(G);
  ASSERT_NE(Backedge, ~0u);
  EXPECT_EQ(G.edge(Backedge).To, G.entryNode());
  // The b_start = ENTRY -> ENTRY pseudo edge would be a self-loop; it is
  // elided and the runtime restart value is 0, reported as Ok.
  EXPECT_EQ(PN.entryPseudoIndexForBackedge(Backedge), ~0u);
  uint64_t Start = ~uint64_t(0);
  EXPECT_EQ(PN.tryBackedgeStartValue(Backedge, Start),
            bl::NumberingQueryStatus::Ok);
  EXPECT_EQ(Start, 0u);

  // Both paths restart exactly like ordinary entry paths: neither claims
  // to start after a back edge.
  ASSERT_EQ(PN.numPaths(), 2u);
  int EndsWith = 0;
  for (uint64_t Sum = 0; Sum != 2; ++Sum) {
    bl::RegeneratedPath Path = PN.regenerate(Sum);
    EXPECT_FALSE(Path.StartsAfterBackedge);
    EXPECT_EQ(Path.EntryBackedge, ~0u);
    if (Path.EndsWithBackedge) {
      ++EndsWith;
      EXPECT_EQ(Path.ExitBackedge, Backedge);
    }
  }
  EXPECT_EQ(EndsWith, 1);

  // The k-numbering layers over the elided pseudo edge the same way:
  // every window decodes and re-sums.
  bl::KPathNumbering KPN(PN, 3);
  EXPECT_EQ(KPN.effectiveK(), 3u);
  for (uint64_t Sum = 0; Sum != KPN.numPaths(); ++Sum) {
    std::vector<bl::RegeneratedPath> Segments = KPN.regenerate(Sum);
    EXPECT_EQ(sumOfSegments(KPN, Segments), Sum);
  }
}

TEST(PathNumberingCorners, PathCanStartAndEndWithDistinctBackedges) {
  auto M = buildTwoLoops();
  cfg::Cfg G(*M->main());
  bl::PathNumbering PN(G);
  ASSERT_TRUE(PN.valid());

  bool Found = false;
  for (uint64_t Sum = 0; Sum != PN.numPaths(); ++Sum) {
    bl::RegeneratedPath Path = PN.regenerate(Sum);
    if (Path.StartsAfterBackedge && Path.EndsWithBackedge &&
        Path.EntryBackedge != Path.ExitBackedge) {
      // h1 -> h2 -> b2: resumes after loop 1's back edge, ends taking
      // loop 2's.
      EXPECT_NE(Path.EntryBackedge, ~0u);
      EXPECT_NE(Path.ExitBackedge, ~0u);
      Found = true;
    }
  }
  EXPECT_TRUE(Found)
      << "no path starting and ending with distinct back edges";
}

TEST(PathNumberingCorners, ParallelEdgesAreDistinctPaths) {
  auto M = buildParallelEdges();
  cfg::Cfg G(*M->main());
  bl::PathNumbering PN(G);
  ASSERT_TRUE(PN.valid());
  // Two paths with identical node sequences, distinguished only by which
  // parallel edge they took.
  ASSERT_EQ(PN.numPaths(), 2u);
  bl::RegeneratedPath P0 = PN.regenerate(0);
  bl::RegeneratedPath P1 = PN.regenerate(1);
  EXPECT_EQ(P0.Nodes, P1.Nodes);
  ASSERT_EQ(P0.Edges.size(), P1.Edges.size());
  EXPECT_NE(P0.Edges, P1.Edges);
}

// --- k = 1 is the legacy numbering -------------------------------------------

TEST(KPathNumbering, KOneMatchesLegacyValueForValue) {
  auto M = workloads::buildLoopModule(10);
  cfg::Cfg G(*M->main());
  bl::PathNumbering PN(G);
  ASSERT_TRUE(PN.valid());
  bl::KPathNumbering KPN(PN, 1);

  EXPECT_EQ(KPN.requestedK(), 1u);
  EXPECT_EQ(KPN.effectiveK(), 1u);
  EXPECT_FALSE(KPN.multiIteration());
  EXPECT_EQ(KPN.numPaths(), PN.numPaths());
  for (unsigned Index = 0; Index != PN.transformedEdges().size(); ++Index)
    EXPECT_EQ(KPN.levelValue(0, Index), PN.transformedEdges()[Index].Val)
        << "transformed edge " << Index;

  for (uint64_t Sum = 0; Sum != PN.numPaths(); ++Sum) {
    std::vector<bl::RegeneratedPath> Segments = KPN.regenerate(Sum);
    ASSERT_EQ(Segments.size(), 1u);
    bl::RegeneratedPath Legacy = PN.regenerate(Sum);
    EXPECT_EQ(Segments[0].Nodes, Legacy.Nodes);
    EXPECT_EQ(Segments[0].Edges, Legacy.Edges);
    EXPECT_EQ(Segments[0].StartsAfterBackedge, Legacy.StartsAfterBackedge);
    EXPECT_EQ(Segments[0].EndsWithBackedge, Legacy.EndsWithBackedge);
    EXPECT_EQ(Segments[0].EntryBackedge, Legacy.EntryBackedge);
    EXPECT_EQ(Segments[0].ExitBackedge, Legacy.ExitBackedge);
  }
}

// --- The fallback ladder -----------------------------------------------------

TEST(KPathNumbering, LadderFallsBackDeterministically) {
  // 25 diamonds in a loop: ~2^26 windows per extra iteration, so k = 2
  // fits under 2^62 but k = 3 does not. Requesting 4 must settle on 2.
  auto M = buildLoopedDiamonds(25);
  cfg::Cfg G(*M->main());
  bl::PathNumbering PN(G);
  ASSERT_TRUE(PN.valid());

  bl::KPathNumbering KPN(PN, 4);
  EXPECT_EQ(KPN.requestedK(), 4u);
  EXPECT_GE(KPN.effectiveK(), 1u);
  EXPECT_LT(KPN.effectiveK(), 4u);
  EXPECT_EQ(KPN.effectiveK(), 2u);
  EXPECT_LT(KPN.numPaths(), bl::PathNumbering::MaxPaths);

  // Deterministic across constructions.
  bl::KPathNumbering Again(PN, 4);
  EXPECT_EQ(Again.effectiveK(), KPN.effectiveK());
  EXPECT_EQ(Again.numPaths(), KPN.numPaths());

  // A smaller request that fits is honoured exactly.
  bl::KPathNumbering K2(PN, 2);
  EXPECT_EQ(K2.effectiveK(), 2u);
  EXPECT_EQ(K2.numPaths(), KPN.numPaths());
}

TEST(KPathNumbering, WindowCountIsMonotoneInK) {
  auto M = workloads::buildLoopModule(10);
  cfg::Cfg G(*M->main());
  bl::PathNumbering PN(G);
  ASSERT_TRUE(PN.valid());
  uint64_t Prev = 0;
  for (unsigned K = 1; K <= 5; ++K) {
    bl::KPathNumbering KPN(PN, K);
    ASSERT_EQ(KPN.effectiveK(), K);
    EXPECT_GE(KPN.numPaths(), Prev) << "k = " << K;
    Prev = KPN.numPaths();
  }
}

// --- Round-trip fuzz over random CFGs ----------------------------------------

class RandomCfgKPathTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCfgKPathTest, WindowsDecodeAndResum) {
  auto M = randomModule(GetParam() * 131 + 17, 3 + GetParam() % 8);
  cfg::Cfg G(*M->main());
  bl::PathNumbering PN(G);
  ASSERT_TRUE(PN.valid());

  for (unsigned K = 1; K <= 4; ++K) {
    bl::KPathNumbering KPN(PN, K);
    ASSERT_GE(KPN.effectiveK(), 1u);
    ASSERT_LE(KPN.effectiveK(), K);
    uint64_t Limit = std::min<uint64_t>(KPN.numPaths(), 1500);
    std::set<std::string> Seen;
    for (uint64_t Sum = 0; Sum != Limit; ++Sum) {
      std::vector<bl::RegeneratedPath> Segments;
      ASSERT_EQ(KPN.tryRegenerate(Sum, Segments),
                bl::NumberingQueryStatus::Ok)
          << "k = " << K << " sum " << Sum;
      ASSERT_FALSE(Segments.empty());
      ASSERT_LE(Segments.size(), KPN.effectiveK());

      // Segments chain through back edges: every segment but the last
      // ends with one, and the next segment resumes right after it.
      for (size_t Index = 0; Index + 1 < Segments.size(); ++Index) {
        EXPECT_TRUE(Segments[Index].EndsWithBackedge);
        EXPECT_TRUE(Segments[Index + 1].StartsAfterBackedge ||
                    G.edge(Segments[Index].ExitBackedge).To == G.entryNode());
        if (Segments[Index + 1].StartsAfterBackedge) {
          EXPECT_EQ(Segments[Index + 1].EntryBackedge,
                    Segments[Index].ExitBackedge);
        }
      }

      // The decomposition re-sums to the window id, and no two windows
      // decode to the same segment sequence.
      EXPECT_EQ(sumOfSegments(KPN, Segments), Sum);
      EXPECT_TRUE(Seen.insert(windowKey(Segments)).second)
          << "duplicate window for sum " << Sum;

      // k = 1 must match the legacy decoder byte for byte.
      if (K == 1) {
        bl::RegeneratedPath Legacy = PN.regenerate(Sum);
        ASSERT_EQ(Segments.size(), 1u);
        EXPECT_EQ(Segments[0].Nodes, Legacy.Nodes);
        EXPECT_EQ(Segments[0].Edges, Legacy.Edges);
      }
    }
    std::vector<bl::RegeneratedPath> Segments;
    EXPECT_EQ(KPN.tryRegenerate(KPN.numPaths(), Segments),
              bl::NumberingQueryStatus::OutOfRange);
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, RandomCfgKPathTest,
                         ::testing::Range(uint64_t(0), uint64_t(15)));

// --- End to end through the profiler -----------------------------------------

TEST(KPathProfile, WindowFrequenciesConserveSegmentCounts) {
  // Run the same loop under k = 1 and k = 2 (both hashed, so the probe
  // placement matches). Every executed acyclic path lands in exactly one
  // window, so sum(freq * segments-per-window) over the k = 2 profile must
  // equal sum(freq) over the k = 1 profile.
  auto M = workloads::buildLoopModule(10);

  prof::SessionOptions Base;
  Base.Config.M = prof::Mode::FlowHw;
  Base.Config.K = 1;
  Base.Config.Plan.ArrayThreshold = 1; // force hashing in both runs
  prof::RunOutcome RunK1 = prof::runProfile(*M, Base);
  ASSERT_TRUE(RunK1.Result.Ok) << RunK1.Result.Error;

  prof::SessionOptions K2 = Base;
  K2.Config.K = 2;
  prof::RunOutcome RunK2 = prof::runProfile(*M, K2);
  ASSERT_TRUE(RunK2.Result.Ok) << RunK2.Result.Error;

  uint64_t SegmentsK1 = 0, SegmentsK2 = 0, WindowsWithMany = 0;
  for (const prof::FunctionPathProfile &Profile : RunK1.PathProfiles) {
    if (!Profile.HasProfile)
      continue;
    EXPECT_EQ(Profile.KIters, 1u);
    for (const prof::PathEntry &Entry : Profile.Paths)
      SegmentsK1 += Entry.Freq;
  }
  for (const prof::FunctionPathProfile &Profile : RunK2.PathProfiles) {
    if (!Profile.HasProfile)
      continue;
    ASSERT_LT(Profile.FuncId, RunK2.Instr.Functions.size());
    const prof::FunctionInstrInfo &Info =
        RunK2.Instr.Functions[Profile.FuncId];
    EXPECT_EQ(Profile.KIters, Info.KIters);
    if (Profile.KIters == 1) {
      for (const prof::PathEntry &Entry : Profile.Paths)
        SegmentsK2 += Entry.Freq;
      continue;
    }
    EXPECT_EQ(Profile.KIters, 2u);
    EXPECT_TRUE(Profile.Hashed);
    // Decode every counted window against the pristine module.
    bl::KPathBundle Bundle(*M->function(Profile.FuncId), Profile.KIters);
    ASSERT_EQ(Bundle.KPN.effectiveK(), Profile.KIters);
    EXPECT_EQ(Bundle.KPN.numPaths(), Profile.NumPaths);
    for (const prof::PathEntry &Entry : Profile.Paths) {
      std::vector<bl::RegeneratedPath> Segments;
      ASSERT_EQ(Bundle.KPN.tryRegenerate(Entry.PathSum, Segments),
                bl::NumberingQueryStatus::Ok)
          << "window " << Entry.PathSum;
      SegmentsK2 += Entry.Freq * Segments.size();
      WindowsWithMany += Segments.size() > 1;
    }
  }
  EXPECT_EQ(SegmentsK1, SegmentsK2);
  // The loop actually produced multi-iteration windows.
  EXPECT_GT(WindowsWithMany, 0u);
}

TEST(KPathProfile, LadderedFunctionStillProfilesAtSmallerK) {
  // The diamond-heavy loop cannot number k = 3 windows; the run must fall
  // back per function (here to k = 2) and record the level it chose.
  auto M = buildLoopedDiamonds(25);

  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::Flow;
  Options.Config.K = 3;
  prof::RunOutcome Run = prof::runProfile(*M, Options);
  ASSERT_TRUE(Run.Result.Ok) << Run.Result.Error;

  bool SawLadder = false;
  for (const prof::FunctionInstrInfo &Info : Run.Instr.Functions) {
    if (!Info.HasPathProfile)
      continue;
    EXPECT_GE(Info.KIters, 1u);
    EXPECT_LE(Info.KIters, 3u);
    SawLadder |= Info.KIters < 3;
  }
  EXPECT_TRUE(SawLadder) << "no function took the fallback ladder";
}
