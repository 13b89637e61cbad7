//===- perfbench/src/Streams.cpp - Seeded workload inputs ----------------===//

#include "Streams.h"

#include "Rng.h"

#include <numeric>

using namespace perfbench;

namespace {
// Sub-stream ids, so each kind of draw is independent of the others.
enum : uint64_t {
  StreamScaleOffsets = 1,
  StreamBlockOrder = 2,
  StreamReference = 3,
  StreamReplay = 4,
  StreamUpload = 5,
  StreamQuery = 6,
};

uint64_t mix(uint64_t A, uint64_t B) {
  return A * 0x100000001b3ULL ^ (B + 0x9e3779b97f4a7c15ULL);
}

std::vector<size_t> iota(size_t N) {
  std::vector<size_t> Out(N);
  std::iota(Out.begin(), Out.end(), size_t(0));
  return Out;
}
} // namespace

std::vector<ProfileOp> perfbench::profileBlock(uint64_t Seed, uint64_t Block,
                                               size_t NumPrograms) {
  // Each program gets a seeded offset into the scale ladder and steps
  // through it block by block (a Latin square), so any ScaleLadderSize
  // consecutive blocks hold the same (program, scale) multiset whatever
  // the seed; the seed decides the order and which scales share a block.
  Rng Offsets(Seed, StreamScaleOffsets);
  std::vector<ProfileOp> Ops;
  for (size_t Program = 0; Program != NumPrograms; ++Program) {
    uint64_t Offset = Offsets.below(ScaleLadderSize);
    Ops.push_back({static_cast<unsigned>(Program),
                   ScaleLadder[(Offset + Block) % ScaleLadderSize]});
  }
  Rng Order(mix(Seed, Block), StreamBlockOrder);
  Order.shuffle(Ops);
  return Ops;
}

bool perfbench::referenceSampled(uint64_t Seed, uint64_t Op) {
  return Rng(mix(Seed, Op), StreamReference).below(ReferenceSampleEvery) == 0;
}

ReplayOrder perfbench::replayOrder(uint64_t Seed, uint64_t Op,
                                   size_t NumTickets, size_t NumGroups,
                                   size_t GroupSize) {
  Rng R(mix(Seed, Op), StreamReplay);
  ReplayOrder Out;
  Out.Submit = iota(NumTickets);
  R.shuffle(Out.Submit);
  for (size_t Group = 0; Group != NumGroups; ++Group) {
    Out.Shards.push_back(iota(GroupSize));
    R.shuffle(Out.Shards.back());
  }
  return Out;
}

UploadSpec perfbench::fleetUpload(uint64_t Seed, uint64_t Index,
                                  size_t NumPrograms) {
  const std::vector<double> Cdf = zipfCdf(NumPrograms, FleetZipf);
  Rng R(mix(Seed, Index), StreamUpload);
  UploadSpec U;
  U.Program = static_cast<unsigned>(drawRank(R, Cdf));
  double Kind = R.unit();
  U.V = Kind < FleetSampledShare ? Variant::FlowHwSampled
        : Kind < 0.5             ? Variant::FlowHw
                                 : Variant::ContextFlowHw;
  U.Window = R.below(FleetWindows);
  double Damage = R.unit();
  U.Damage = Damage >= FleetCorruptShare       ? Corruption::None
             : Damage < FleetCorruptShare / 2 ? Corruption::BitFlip
                                               : Corruption::BadMagic;
  U.FlipAt = R.next();
  return U;
}

QuerySpec perfbench::fleetQuery(uint64_t Seed, uint64_t Index) {
  Rng R(mix(Seed, Index), StreamQuery);
  QuerySpec Q;
  Q.What = static_cast<QueryWhat>(R.below(3));
  Q.Window = R.below(FleetWindows);
  return Q;
}
