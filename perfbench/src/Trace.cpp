//===- perfbench/src/Trace.cpp - Spans around layer calls ----------------===//

#include "Trace.h"

#include "Bench.h"
#include "Stats.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <memory>

using namespace perfbench;

int64_t Tracer::begin(const char *Name, const char *Tag) {
  if (!Enabled)
    return -1;
  SpanRecord R;
  R.Name = Name;
  R.Tag = Tag;
  R.Parent = Open.empty() ? NoParent : Open.back();
  R.Op = R.Parent == NoParent ? NextOp : Spans[R.Parent].Op;
  int64_t Index = static_cast<int64_t>(Spans.size());
  Spans.push_back(R);
  Open.push_back(Index);
  Spans.back().Start = nowNs();
  return Index;
}

void Tracer::end(int64_t Index) {
  if (Index < 0)
    return;
  Spans[Index].End = nowNs();
  // Spans are scoped objects, so they close in LIFO order.
  assert(!Open.empty() && Open.back() == Index);
  Open.pop_back();
}

int64_t Tracer::beginOp() {
  if (!Enabled)
    return -1;
  ++NextOp;
  return begin("op");
}

bool Tracer::write(const std::string &Path, std::string &Error) const {
  std::unique_ptr<FILE, int (*)(FILE *)> F(std::fopen(Path.c_str(), "w"),
                                           &std::fclose);
  if (!F) {
    Error = "cannot write " + Path;
    return false;
  }
  std::fprintf(F.get(), "# id\tname\ttag\tstart_ns\tend_ns\tparent\top\n");
  for (size_t Index = 0; Index != Spans.size(); ++Index) {
    const SpanRecord &S = Spans[Index];
    std::fprintf(F.get(), "%zu\t%s\t%s\t%llu\t%llu\t%lld\t%llu\n", Index,
                 S.Name, S.Tag, (unsigned long long)S.Start,
                 (unsigned long long)S.End, (long long)S.Parent,
                 (unsigned long long)S.Op);
  }
  return true;
}

std::vector<uint64_t>
perfbench::selfTimes(const std::vector<SpanRecord> &Spans) {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t Index = 0; Index != Spans.size(); ++Index)
    if (Spans[Index].Parent != NoParent)
      Children[Spans[Index].Parent].push_back(Index);

  std::vector<uint64_t> Self(Spans.size());
  for (size_t Index = 0; Index != Spans.size(); ++Index) {
    const SpanRecord &P = Spans[Index];
    uint64_t Duration = P.End > P.Start ? P.End - P.Start : 0;
    std::vector<std::pair<uint64_t, uint64_t>> Cover;
    for (size_t Child : Children[Index]) {
      uint64_t Lo = std::max(Spans[Child].Start, P.Start);
      uint64_t Hi = std::min(Spans[Child].End, P.End);
      if (Hi > Lo)
        Cover.push_back({Lo, Hi});
    }
    std::sort(Cover.begin(), Cover.end());
    uint64_t Covered = 0, Reach = 0;
    for (auto [Lo, Hi] : Cover) {
      Lo = std::max(Lo, Reach);
      if (Hi > Lo)
        Covered += Hi - Lo;
      Reach = std::max(Reach, Hi);
    }
    Self[Index] = Duration - std::min(Duration, Covered);
  }
  return Self;
}

Attribution perfbench::attribute(const std::vector<SpanRecord> &Spans) {
  Attribution A;
  std::vector<uint64_t> Self = selfTimes(Spans);
  std::map<uint64_t, uint64_t> OpSelfSum;
  std::map<uint64_t, uint64_t> OpWall;
  for (size_t Index = 0; Index != Spans.size(); ++Index) {
    const SpanRecord &S = Spans[Index];
    OpSelfSum[S.Op] += Self[Index];
    if (S.Parent == NoParent) {
      uint64_t Wall = S.End - S.Start;
      OpWall[S.Op] += Wall;
      A.OpWallNs += Wall;
      A.UnattributedNs += Self[Index];
      A.LayerNs["bench"] += double(Self[Index]);
      ++A.Ops;
      continue;
    }
    std::string Key = S.Name;
    if (*S.Tag)
      Key += std::string("@") + S.Tag;
    A.SelfNs[Key].push_back(double(Self[Index]));
    std::string Layer = S.Name;
    Layer = Layer.substr(0, Layer.find('.'));
    A.LayerNs[Layer] += double(Self[Index]);
  }
  for (const auto &[Op, Wall] : OpWall)
    if (OpSelfSum[Op] != Wall)
      ++A.Mismatched;
  return A;
}

double perfbench::medianSelf(const Attribution &A, const std::string &Key,
                             double Scale) {
  auto It = A.SelfNs.find(Key);
  return It == A.SelfNs.end() ? 0 : median(It->second) * Scale;
}

void perfbench::reportAttribution(Result &R, const Attribution &A,
                                  double TraceOverheadFrac) {
  R.metric("bench.trace_overhead_frac", TraceOverheadFrac, "ratio");
  R.metric("bench.unattributed_frac",
           A.OpWallNs ? double(A.UnattributedNs) / double(A.OpWallNs) : 0,
           "ratio");
  for (const auto &[Layer, Ns] : A.LayerNs)
    R.detail("layer." + Layer + ".self_s", Ns * 1e-9, "s");
  R.detail("bench.traced_ops", double(A.Ops), "count");
  if (A.Mismatched)
    R.fail(std::to_string(A.Mismatched) +
           " traced ops whose span self times do not add up to their wall "
           "time");
}
