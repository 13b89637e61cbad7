//===- perfbench/tests/PerfbenchTest.cpp - The benchmark's own tests -----===//
//
// The rules the benchmark's numbers rest on: the tail-percentile rule,
// self time as span minus child coverage, seed -> identical input stream,
// and open-loop latency timed from the due time.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Streams.h"
#include "Trace.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace perfbench;

namespace {

std::vector<double> ramp(size_t N) {
  std::vector<double> Out;
  for (size_t Index = 1; Index <= N; ++Index)
    Out.push_back(double(Index));
  return Out;
}

SpanRecord span(const char *Name, uint64_t Start, uint64_t End,
                int64_t Parent, uint64_t Op = 1) {
  SpanRecord S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  S.Op = Op;
  return S;
}

} // namespace

TEST(Percentile, NearestRank) {
  std::vector<double> S = ramp(100);
  EXPECT_EQ(percentile(S, 50), 50);
  EXPECT_EQ(percentile(S, 90), 90);
  EXPECT_EQ(percentile(S, 100), 100);
  EXPECT_EQ(percentile({7}, 99), 7);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  // 99 samples: p90 has only 9 beyond its rank, so no tail is valid.
  Tail Few = tailPercentile(ramp(99));
  EXPECT_FALSE(Few.Valid);
  EXPECT_EQ(Few.Count, 99u);

  // 100 samples: p90 (rank 90) has exactly 10 beyond; p99 has 1.
  Tail P90 = tailPercentile(ramp(100));
  ASSERT_TRUE(P90.Valid);
  EXPECT_EQ(P90.Percentile, 90);
  EXPECT_EQ(P90.Value, 90);
  EXPECT_EQ(P90.Beyond, 10u);
  EXPECT_EQ(P90.Count, 100u);

  // 999 samples still stop at p90; 1000 reach p99.
  EXPECT_EQ(tailPercentile(ramp(999)).Percentile, 90);
  Tail P99 = tailPercentile(ramp(1000));
  EXPECT_EQ(P99.Percentile, 99);
  EXPECT_EQ(P99.Value, 990);
  EXPECT_EQ(P99.Beyond, 10u);
  EXPECT_EQ(tailPercentile(ramp(10000)).Percentile, 99.9);
}

TEST(SelfTime, SpanMinusChildCoverage) {
  std::vector<SpanRecord> S = {
      span("op", 0, 100, NoParent),
      span("ir.parse", 10, 30, 0),
      span("vm.execute", 40, 90, 0),
      span("vm.load", 50, 60, 2),
  };
  std::vector<uint64_t> Self = selfTimes(S);
  EXPECT_EQ(Self[0], 100u - 20u - 50u);
  EXPECT_EQ(Self[1], 20u);
  EXPECT_EQ(Self[2], 50u - 10u);
  EXPECT_EQ(Self[3], 10u);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  std::vector<SpanRecord> S = {
      span("op", 100, 200, NoParent),
      span("a.x", 110, 150, 0),
      span("a.y", 140, 160, 0),  // overlaps a.x by 10
      span("a.z", 190, 230, 0),  // runs 30 past its parent
  };
  std::vector<uint64_t> Self = selfTimes(S);
  // Covered: [110,160) + [190,200) = 60.
  EXPECT_EQ(Self[0], 40u);
}

TEST(SelfTime, AttributionAddsUpToOpWallTime) {
  std::vector<SpanRecord> S = {
      span("op", 0, 100, NoParent, 1),
      span("ir.parse", 10, 30, 0, 1),
      span("vm.execute", 40, 90, 0, 1),
      span("vm.load", 50, 60, 2, 1),
      span("op", 200, 260, NoParent, 2),
      span("ir.parse", 200, 250, 4, 2),
  };
  Attribution A = attribute(S);
  EXPECT_EQ(A.Ops, 2u);
  EXPECT_EQ(A.Mismatched, 0u);
  EXPECT_EQ(A.OpWallNs, 160u);
  EXPECT_EQ(A.UnattributedNs, 30u + 10u);
  EXPECT_EQ(A.LayerNs["ir"], 70);
  EXPECT_EQ(A.LayerNs["vm"], 50);
  EXPECT_EQ(A.LayerNs["bench"], 40);
  EXPECT_EQ(A.SelfNs["ir.parse"].size(), 2u);
}

TEST(SelfTime, TracerRecordsNesting) {
  Tracer T(true);
  {
    OpSpan Root(T);
    Span A(T, "ir.parse");
    { Span B(T, "vm.execute", "plain"); }
  }
  { Span Outside(T, "x.y"); }
  T.setEnabled(false);
  { Span Off(T, "z.w"); }
  const std::vector<SpanRecord> &S = T.spans();
  ASSERT_EQ(S.size(), 4u);
  EXPECT_EQ(S[0].Parent, NoParent);
  EXPECT_EQ(S[1].Parent, 0);
  EXPECT_EQ(S[2].Parent, 1);
  EXPECT_STREQ(S[2].Tag, "plain");
  EXPECT_EQ(S[2].Op, S[0].Op);
  EXPECT_EQ(S[3].Parent, NoParent);
  EXPECT_EQ(attribute(S).Mismatched, 0u);
}

TEST(Streams, SameSeedSameProfileStream) {
  for (uint64_t Block = 0; Block != 8; ++Block) {
    std::vector<ProfileOp> A = profileBlock(42, Block, 18);
    std::vector<ProfileOp> B = profileBlock(42, Block, 18);
    ASSERT_EQ(A.size(), 18u);
    for (size_t Index = 0; Index != A.size(); ++Index) {
      EXPECT_EQ(A[Index].Program, B[Index].Program);
      EXPECT_EQ(A[Index].Scale, B[Index].Scale);
    }
  }
  bool Differs = false;
  std::vector<ProfileOp> A = profileBlock(42, 0, 18);
  std::vector<ProfileOp> C = profileBlock(43, 0, 18);
  for (size_t Index = 0; Index != A.size(); ++Index)
    Differs |= A[Index].Program != C[Index].Program ||
               A[Index].Scale != C[Index].Scale;
  EXPECT_TRUE(Differs);
}

TEST(Streams, ProfileBlocksBalanceProgramsAndScales) {
  for (uint64_t Seed : {1u, 7u, 1234u}) {
    std::map<std::pair<unsigned, int>, int> Seen;
    for (uint64_t Block = 0; Block != ScaleLadderSize; ++Block) {
      std::set<unsigned> Programs;
      for (const ProfileOp &Op : profileBlock(Seed, Block, 18)) {
        Programs.insert(Op.Program);
        ++Seen[{Op.Program, Op.Scale}];
      }
      EXPECT_EQ(Programs.size(), 18u); // each program once per block
    }
    // Every (program, scale) exactly once per ladder cycle.
    EXPECT_EQ(Seen.size(), 18u * ScaleLadderSize);
    for (const auto &[Key, Count] : Seen)
      EXPECT_EQ(Count, 1);
  }
}

TEST(Streams, SameSeedSameFleetStream) {
  size_t Corrupt = 0, Sampled = 0;
  std::map<unsigned, size_t> PerProgram;
  for (uint64_t Index = 0; Index != 20000; ++Index) {
    UploadSpec A = fleetUpload(9, Index, 18);
    UploadSpec B = fleetUpload(9, Index, 18);
    ASSERT_EQ(A.Program, B.Program);
    ASSERT_EQ(A.V, B.V);
    ASSERT_EQ(A.Window, B.Window);
    ASSERT_EQ(A.Damage, B.Damage);
    ASSERT_EQ(A.FlipAt, B.FlipAt);
    ASSERT_LT(A.Window, FleetWindows);
    Corrupt += A.Damage != Corruption::None;
    Sampled += A.V == Variant::FlowHwSampled;
    ++PerProgram[A.Program];
  }
  // About 2% corrupted, about 3% sampled, Zipf-skewed toward rank 0.
  EXPECT_NEAR(double(Corrupt) / 20000, FleetCorruptShare, 0.005);
  EXPECT_NEAR(double(Sampled) / 20000, FleetSampledShare, 0.006);
  EXPECT_GT(PerProgram[0], 4 * PerProgram[17]);
  EXPECT_GT(PerProgram[0] + PerProgram[1] + PerProgram[2], 20000u / 3);

  bool Differs = false;
  for (uint64_t Index = 0; Index != 64; ++Index)
    Differs |= fleetUpload(9, Index, 18).Program !=
               fleetUpload(10, Index, 18).Program;
  EXPECT_TRUE(Differs);

  for (uint64_t Index = 0; Index != 100; ++Index) {
    QuerySpec A = fleetQuery(5, Index), B = fleetQuery(5, Index);
    EXPECT_EQ(A.What, B.What);
    EXPECT_EQ(A.Window, B.Window);
  }
}

TEST(Streams, SameSeedSameReplayOrder) {
  ReplayOrder A = replayOrder(3, 1, 288, 36, 4);
  ReplayOrder B = replayOrder(3, 1, 288, 36, 4);
  EXPECT_EQ(A.Submit, B.Submit);
  EXPECT_EQ(A.Shards, B.Shards);
  std::vector<size_t> Sorted = A.Submit;
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t Index = 0; Index != Sorted.size(); ++Index)
    EXPECT_EQ(Sorted[Index], Index); // a permutation
  EXPECT_NE(A.Submit, replayOrder(4, 1, 288, 36, 4).Submit);
  EXPECT_NE(A.Submit, replayOrder(3, 2, 288, 36, 4).Submit);
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  // 1000 requests/s starting at t = 1 s: request I is due at 1 s + I ms.
  OpenLoop L(1000000000ULL, 1000);
  EXPECT_EQ(L.due(0), 1000000000ULL);
  EXPECT_EQ(L.due(5), 1005000000ULL);
  // A request answered 2 ms after it was due reads 2 ms, however late it
  // was actually sent: a 10 ms stall before sending request 5 charges it
  // (and every request it delayed) the stall.
  EXPECT_DOUBLE_EQ(L.latencyMs(5, 1007000000ULL), 2.0);
  uint64_t SentLate = L.due(5) + 10000000ULL;
  uint64_t Done = SentLate + 500000ULL; // 0.5 ms service time
  EXPECT_DOUBLE_EQ(L.latencyMs(5, Done), 10.5);
  EXPECT_DOUBLE_EQ(L.latencyMs(6, Done), 9.5);
}
