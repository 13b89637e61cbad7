//===- perfbench/src/ProfileCold.cpp - The profile-cold workload ---------===//
//
// One developer's profile -> optimize -> re-run loop, as a closed loop on
// one thread with no run cache. One op takes one program through:
//
//   workloads::buildWorkload
//   ir::printModule -> ir::parseModule -> ir::verifyModule   (.ppir)
//   RunStager Mode::None baseline                  (Table 1's denominator)
//   RunStager ContextFlowHw, exact acquisition     (instrument/load/
//                                                   execute/extract)
//   profdb::artifactFromOutcome + encodeArtifact
//   opt::ProfileView::build -> opt::runPipeline (layout, superblock, inline)
//   RunStager Mode::None re-run of the optimized module
//
// All three runs use the small direct-mapped I-cache of bench/pgo_loop so
// that block placement matters. The oracle, run between ops and outside
// their timing, re-executes a seeded sample of ops (every op when traced)
// on the reference interpreter, from the op's own .ppir text, and demands
// byte-identical artifacts and identical baseline results; every op's
// optimized re-run must exit with the baseline's value.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"
#include "Streams.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/Pass.h"
#include "prof/Session.h"
#include "profdb/Artifact.h"
#include "workloads/Spec.h"

#include <memory>

using namespace perfbench;
using namespace pp;

namespace {

/// Blocks an untraced run measures at least (>= 100 ops, so p90 has ten
/// samples beyond it); a traced run measures at least MinTracedBlocks in
/// each of its two passes. Runs stop only after whole scale-ladder
/// cycles, so every run profiles the same (program, scale) mix.
constexpr uint64_t MinBlocks = 2 * ScaleLadderSize;
constexpr uint64_t MinTracedBlocks = ScaleLadderSize;

hw::MachineConfig smallICacheMachine() {
  hw::MachineConfig Cfg;
  Cfg.ICache = hw::CacheConfig{256, 64, 1};
  return Cfg;
}

prof::SessionOptions plainOptions(vm::Engine Engine) {
  prof::SessionOptions O;
  O.Config.M = prof::Mode::None;
  O.MachineCfg = smallICacheMachine();
  O.Engine = Engine;
  return O;
}

prof::SessionOptions profiledOptions(vm::Engine Engine) {
  prof::SessionOptions O = plainOptions(Engine);
  O.Config.M = prof::Mode::ContextFlowHw;
  O.Config.Pic0 = hw::Event::Cycles;
  O.Config.Pic1 = hw::Event::ICacheMiss;
  return O;
}

uint64_t staticInsts(const ir::Module &M) {
  uint64_t Count = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      Count += BB->insts().size();
  return Count;
}

uint64_t initBytes(const ir::Module &M) {
  uint64_t Bytes = 0;
  for (size_t Index = 0; Index != M.numGlobals(); ++Index)
    Bytes += M.global(Index).Init.size();
  return Bytes;
}

struct Staged {
  prof::RunOutcome Out;
  uint64_t ExecNs = 0;
  uint64_t StageNs = 0;
};

/// One run through the four RunStager stages, each in its own span.
Staged stagedRun(Tracer &T, const ir::Module &M,
                 const prof::SessionOptions &O, const char *Tag) {
  Staged S;
  uint64_t Start = nowNs();
  std::unique_ptr<prof::RunStager> Stager;
  {
    Span Sp(T, "prof.instrument", Tag);
    Stager = std::make_unique<prof::RunStager>(M, O);
    Stager->instrument();
  }
  {
    Span Sp(T, "vm.load", Tag);
    Stager->load();
  }
  {
    Span Sp(T, "vm.execute", Tag);
    uint64_t ExecStart = nowNs();
    Stager->execute();
    S.ExecNs = nowNs() - ExecStart;
  }
  {
    Span Sp(T, "prof.extract", Tag);
    S.Out = Stager->extract();
    Stager.reset();
  }
  S.StageNs = nowNs() - Start;
  return S;
}

std::string fingerprintOf(const ProfileOp &Op) {
  return "perfbench;profile-cold;" +
         workloads::spec95Suite()[Op.Program].Name +
         ";scale=" + std::to_string(Op.Scale);
}

/// What one op produced and cost.
struct OpRecord {
  ProfileOp Op;
  uint64_t WallNs = 0;
  bool Ok = true;
  std::string Why;
  // Baseline, profiled and re-run results.
  uint64_t BaseInsts = 0, ProfInsts = 0, RerunInsts = 0;
  uint64_t BaseExecNs = 0, ProfExecNs = 0, RerunExecNs = 0;
  uint64_t ProfStageNs = 0, PlainStageNs = 0;
  uint64_t BaseExit = 0;
  std::array<uint64_t, hw::NumEvents> BaseTotals{};
  std::array<uint64_t, hw::NumEvents> ProfTotals{};
  std::vector<uint8_t> Artifact;
  std::string Text;
  uint64_t ArtifactBytes = 0;
  /// Global initializer bytes the .ppir round trip lost.
  uint64_t LostInitBytes = 0;
  uint64_t ParseNs = 0;
  // Counts.
  uint64_t ModuleInsts = 0, InstrumentedInsts = 0;
  uint64_t CctNodes = 0, PathsExecuted = 0;
  uint64_t OptApplied = 0, OptRefused = 0;
};

OpRecord runOp(Tracer &T, const ProfileOp &Op) {
  OpRecord R;
  R.Op = Op;
  const workloads::WorkloadSpec &Spec = workloads::spec95Suite()[Op.Program];
  auto Fail = [&R](std::string Why) {
    R.Ok = false;
    R.Why = std::move(Why);
    return R;
  };
  uint64_t Start = nowNs();
  {
    OpSpan Root(T);
    std::unique_ptr<ir::Module> Built;
    {
      Span Sp(T, "workloads.build");
      Built = workloads::buildWorkload(Spec.Name, Op.Scale);
    }
    if (!Built)
      return Fail("cannot build " + Spec.Name);
    std::string Text;
    {
      Span Sp(T, "ir.print");
      Text = ir::printModule(*Built);
    }
    ir::ParseResult Parsed;
    {
      Span Sp(T, "ir.parse");
      uint64_t ParseStart = nowNs();
      Parsed = ir::parseModule(Text);
      R.ParseNs = nowNs() - ParseStart;
    }
    if (!Parsed.ok())
      return Fail(Spec.Name + ": .ppir does not parse: " + Parsed.Error);
    ir::Module &M = *Parsed.M;
    std::vector<std::string> Errors;
    bool Verified;
    {
      Span Sp(T, "ir.verify");
      Verified = ir::verifyModule(M, Errors);
    }
    if (!Verified)
      return Fail(Spec.Name + ": parsed module fails to verify");
    R.ModuleInsts = staticInsts(M);

    const prof::SessionOptions Plain = plainOptions(vm::Engine::Threaded);
    const prof::SessionOptions Profiled =
        profiledOptions(vm::Engine::Threaded);
    Staged Base = stagedRun(T, M, Plain, "plain");
    Staged Prof = stagedRun(T, M, Profiled, "profiled");
    if (!Base.Out.Result.Ok || !Prof.Out.Result.Ok)
      return Fail(Spec.Name + ": run failed: " + Base.Out.Result.Error +
                  Prof.Out.Result.Error);

    profdb::Artifact Art;
    {
      Span Sp(T, "profdb.encode");
      Art = profdb::artifactFromOutcome(Prof.Out, M, fingerprintOf(Op),
                                        Spec.Name, Op.Scale, Profiled.Config);
      R.Artifact = profdb::encodeArtifact(Art);
    }
    R.ArtifactBytes = R.Artifact.size();

    opt::ProfileView View;
    opt::ViewStatus Status;
    {
      Span Sp(T, "opt.view");
      Status = opt::ProfileView::build(Art, M, View);
    }
    if (Status != opt::ViewStatus::Ok)
      return Fail(Spec.Name + ": profile refused: " +
                  opt::viewStatusName(Status));
    opt::PipelineResult Pipeline;
    {
      Span Sp(T, "opt.pipeline");
      Pipeline = opt::runPipeline(
          M, View,
          {opt::PassKind::Layout, opt::PassKind::Superblock,
           opt::PassKind::Inline},
          opt::PassOptions{});
    }
    if (!Pipeline.Ok)
      return Fail(Spec.Name + ": pipeline failed: " + Pipeline.Error);

    Staged Rerun = stagedRun(T, M, Plain, "plain");
    Root.close();
    R.WallNs = nowNs() - Start;
    R.Text = std::move(Text);
    R.LostInitBytes = initBytes(*Built) - initBytes(M);

    if (!Rerun.Out.Result.Ok)
      return Fail(Spec.Name + ": optimized re-run failed: " +
                  Rerun.Out.Result.Error);
    if (Rerun.Out.Result.ExitValue != Base.Out.Result.ExitValue)
      return Fail(Spec.Name + ": optimized re-run changed the exit value");

    R.BaseInsts = Base.Out.Result.ExecutedInsts;
    R.ProfInsts = Prof.Out.Result.ExecutedInsts;
    R.RerunInsts = Rerun.Out.Result.ExecutedInsts;
    R.BaseExecNs = Base.ExecNs;
    R.ProfExecNs = Prof.ExecNs;
    R.RerunExecNs = Rerun.ExecNs;
    R.ProfStageNs = Prof.StageNs;
    R.PlainStageNs = Base.StageNs + Rerun.StageNs;
    R.BaseExit = Base.Out.Result.ExitValue;
    R.BaseTotals = Base.Out.Totals;
    R.ProfTotals = Prof.Out.Totals;
    R.InstrumentedInsts =
        Prof.Out.Instr.M ? staticInsts(*Prof.Out.Instr.M) : 0;
    R.CctNodes = Prof.Out.Tree ? Prof.Out.Tree->computeStats().NumRecords : 0;
    // Context+flow profiles keep their paths in the CCT records.
    for (const prof::FunctionPathProfile &P : Prof.Out.PathProfiles)
      R.PathsExecuted += P.Paths.size();
    if (Prof.Out.Tree)
      for (const auto &Record : Prof.Out.Tree->records())
        for (const auto &[Sum, Cell] : Record->PathTable)
          R.PathsExecuted += Cell.Freq > 0;
    for (const opt::PassStats &S : Pipeline.Passes) {
      R.OptApplied += S.FunctionsChanged;
      R.OptRefused += S.BudgetRefusals + S.RecursionRefusals +
                      S.UnsafeRefusals + S.CostRefusals;
    }
  }
  return R;
}

/// Reference-interpreter timings of one checked op.
struct ReferenceTiming {
  uint64_t PlainExecNs = 0;
  uint64_t PlainInsts = 0;
};

/// Re-executes \p R's program, parsed again from its .ppir text, on the
/// reference interpreter and compares with what the threaded engine
/// produced. Returns "" when everything matches.
std::string referenceCheck(const OpRecord &R, ReferenceTiming &Timing) {
  const workloads::WorkloadSpec &Spec =
      workloads::spec95Suite()[R.Op.Program];
  ir::ParseResult Parsed = ir::parseModule(R.Text);
  if (!Parsed.ok())
    return "reference: cannot parse " + Spec.Name;
  const std::unique_ptr<ir::Module> &M = Parsed.M;
  Tracer Off(false);
  const prof::SessionOptions Plain = plainOptions(vm::Engine::Reference);
  const prof::SessionOptions Profiled =
      profiledOptions(vm::Engine::Reference);
  Staged Base = stagedRun(Off, *M, Plain, "");
  Staged Prof = stagedRun(Off, *M, Profiled, "");
  if (!Base.Out.Result.Ok || !Prof.Out.Result.Ok)
    return "reference: run failed for " + Spec.Name;
  Timing.PlainExecNs = Base.ExecNs;
  Timing.PlainInsts = Base.Out.Result.ExecutedInsts;
  if (Base.Out.Result.ExitValue != R.BaseExit ||
      Base.Out.Result.ExecutedInsts != R.BaseInsts ||
      Base.Out.Totals != R.BaseTotals)
    return "reference: baseline of " + Spec.Name +
           " differs from the threaded engine";
  profdb::Artifact Art = profdb::artifactFromOutcome(
      Prof.Out, *M, fingerprintOf(R.Op), Spec.Name, R.Op.Scale,
      Profiled.Config);
  if (profdb::encodeArtifact(Art) != R.Artifact)
    return "reference: artifact of " + Spec.Name +
           " differs from the threaded engine's";
  return "";
}

struct PassTotals {
  std::vector<OpRecord> Ops;
  /// Traced runs: op time of the untraced twin of every traced op.
  uint64_t UntracedWallNs = 0;
  std::vector<ReferenceTiming> Reference;
  /// Threaded baseline execute ns of the reference-checked ops.
  std::vector<uint64_t> ThreadedOfChecked;
  uint64_t Blocks = 0;
  uint64_t WallNs = 0;
};

/// Runs whole blocks until \p Budget seconds of op time and \p MinBlocks
/// blocks are done. With \p Traced, every op also runs once untraced,
/// alternating which goes first, and only the traced one is recorded and
/// checked (all of them, on the reference engine).
void runPass(Tracer &T, uint64_t Seed, double Budget, uint64_t MinBlocksHere,
             bool Traced, PassTotals &P, Result &Res) {
  size_t NumPrograms = workloads::spec95Suite().size();
  uint64_t OpId = 0;
  for (uint64_t Block = 0;; ++Block) {
    if (Block >= MinBlocksHere && Block % ScaleLadderSize == 0 &&
        double(P.WallNs) * 1e-9 >= Budget)
      break;
    for (const ProfileOp &Op : profileBlock(Seed, Block, NumPrograms)) {
      ++OpId;
      auto Untraced = [&] {
        T.setEnabled(false);
        P.UntracedWallNs += runOp(T, Op).WallNs;
        T.setEnabled(true);
      };
      if (Traced && OpId % 2)
        Untraced();
      OpRecord R = runOp(T, Op);
      if (Traced && !(OpId % 2))
        Untraced();
      ++Res.Attempted;
      P.WallNs += R.WallNs;
      if (!R.Ok) {
        Res.fail(R.Why);
        P.Ops.push_back(std::move(R));
        continue;
      }
      if (Traced || referenceSampled(Seed, OpId)) {
        ReferenceTiming Timing;
        std::string Why = referenceCheck(R, Timing);
        if (!Why.empty()) {
          Res.fail(Why);
          R.Ok = false;
        } else {
          P.Reference.push_back(Timing);
          P.ThreadedOfChecked.push_back(R.BaseExecNs);
        }
      }
      R.Artifact.clear();
      R.Artifact.shrink_to_fit();
      R.Text.clear();
      R.Text.shrink_to_fit();
      P.Ops.push_back(std::move(R));
    }
    ++P.Blocks;
  }
}

template <typename Fn> std::vector<double> perOp(const PassTotals &P, Fn F) {
  std::vector<double> Out;
  for (const OpRecord &R : P.Ops)
    if (R.Ok)
      Out.push_back(F(R));
  return Out;
}

void reportEndToEnd(const PassTotals &P, Result &Res) {
  std::vector<double> Lat = perOp(P, [](const OpRecord &R) {
    return double(R.WallNs) * 1e-6;
  });
  double WallS = sum(Lat) * 1e-3;
  Res.metric("throughput_per_s", WallS > 0 ? double(Lat.size()) / WallS : 0,
             "1/s");
  Res.metric("latency_ms_p50", median(Lat), "ms");
  Res.metric("latency_ms_p90", percentile(Lat, 90), "ms");
  Tail T = tailPercentile(Lat);
  Res.detail("loop_ms_tail", T.Value, "ms");
  Res.detail("loop_ms_tail_percentile", T.Percentile, "%");
  Res.detail("loop_samples", double(T.Count), "count");

  double BaseInsts = sum(perOp(P, [](auto &R) { return double(R.BaseInsts); }));
  double ProfNs = sum(perOp(P, [](auto &R) { return double(R.ProfStageNs); }));
  double PlainInsts = sum(perOp(
      P, [](auto &R) { return double(R.BaseInsts + R.RerunInsts); }));
  double PlainNs =
      sum(perOp(P, [](auto &R) { return double(R.PlainStageNs); }));
  Res.detail("profile_minsts_per_s", ProfNs ? BaseInsts / ProfNs * 1e3 : 0,
             "M/s");
  Res.detail("plain_minsts_per_s", PlainNs ? PlainInsts / PlainNs * 1e3 : 0,
             "M/s");
  Res.detail("blocks", double(P.Blocks), "count");
}

void reportPerLayer(const PassTotals &P, const Attribution &A, Result &Res) {
  auto Ms = [&A](const char *Key) { return medianSelf(A, Key, 1e-6); };
  auto Med = [&P](auto F) { return median(perOp(P, F)); };
  Res.metric("workloads.build_ms", Ms("workloads.build"), "ms");
  Res.metric("ir.print_ms", Ms("ir.print"), "ms");
  Res.metric("ir.parse_ms", Ms("ir.parse"), "ms");
  Res.metric("ir.verify_ms", Ms("ir.verify"), "ms");
  Res.metric("ir.parse_kinsts_per_s", Med([](auto &R) {
               return double(R.ModuleInsts) / double(R.ParseNs) * 1e6;
             }),
             "k/s");
  Res.metric("prof.instrument_ms", Ms("prof.instrument@profiled"), "ms");
  Res.metric("vm.load_ms", Ms("vm.load@profiled"), "ms");
  Res.metric("prof.extract_ms", Ms("prof.extract@profiled"), "ms");
  Res.metric("vm.profiled_ns_per_inst", Med([](auto &R) {
               return double(R.ProfExecNs) / double(R.ProfInsts);
             }),
             "ns");
  Res.metric("prof.host_overhead_x", Med([](auto &R) {
               return double(R.ProfExecNs) / double(R.BaseExecNs);
             }),
             "x");
  Res.metric("vm.plain_ns_per_inst", Med([](auto &R) {
               return double(R.BaseExecNs + R.RerunExecNs) /
                      double(R.BaseInsts + R.RerunInsts);
             }),
             "ns");
  Res.metric("profdb.encode_us", medianSelf(A, "profdb.encode", 1e-3), "us");
  Res.metric("profdb.artifact_bytes",
             Med([](auto &R) { return double(R.ArtifactBytes); }),
             "bytes");
  Res.metric("ir.roundtrip_lost_init_bytes",
             Med([](auto &R) { return double(R.LostInitBytes); }), "bytes");
  Res.metric("opt.view_ms", Ms("opt.view"), "ms");
  Res.metric("opt.pipeline_ms", Ms("opt.pipeline"), "ms");

  Res.metric("prof.static_growth_x", Med([](auto &R) {
               return double(R.InstrumentedInsts) / double(R.ModuleInsts);
             }),
             "x");
  auto Total = [](const OpRecord &R, hw::Event E, bool Prof) {
    return double((Prof ? R.ProfTotals : R.BaseTotals)[unsigned(E)]);
  };
  Res.metric("prof.sim_overhead_x", Med([&Total](auto &R) {
               return Total(R, hw::Event::Cycles, true) /
                      Total(R, hw::Event::Cycles, false);
             }),
             "x");
  Res.metric("cct.nodes", Med([](auto &R) { return double(R.CctNodes); }),
             "count");
  Res.metric("prof.paths_executed",
             Med([](auto &R) { return double(R.PathsExecuted); }), "count");
  Res.metric("opt.applied", Med([](auto &R) { return double(R.OptApplied); }),
             "count");
  Res.metric("opt.refused", Med([](auto &R) { return double(R.OptRefused); }),
             "count");
  Res.metric("hw.sim_insts", Med([&Total](auto &R) {
               return Total(R, hw::Event::Insts, true);
             }),
             "count");
  Res.metric("hw.sim_cycles", Med([&Total](auto &R) {
               return Total(R, hw::Event::Cycles, true);
             }),
             "count");
  Res.metric("hw.dcache_misses", Med([&Total](auto &R) {
               return Total(R, hw::Event::DCacheReadMiss, true) +
                      Total(R, hw::Event::DCacheWriteMiss, true);
             }),
             "count");
  Res.metric("hw.icache_misses", Med([&Total](auto &R) {
               return Total(R, hw::Event::ICacheMiss, true);
             }),
             "count");

  std::vector<double> RefNsPerInst, Speedup;
  for (size_t Index = 0; Index != P.Reference.size(); ++Index) {
    const ReferenceTiming &Ref = P.Reference[Index];
    RefNsPerInst.push_back(double(Ref.PlainExecNs) / double(Ref.PlainInsts));
    Speedup.push_back(double(Ref.PlainExecNs) /
                      double(P.ThreadedOfChecked[Index]));
  }
  Res.metric("vm.reference_ns_per_inst", median(RefNsPerInst), "ns");
  Res.metric("vm.threaded_speedup_x", median(Speedup), "x");
}

} // namespace

Result perfbench::runProfileCold(const Options &O, Tracer &T) {
  Result Res;
  size_t NumPrograms = workloads::spec95Suite().size();

  // Set-up: one untimed warm-up op per program at the smallest scale
  // (code, allocator and page warm-up), repeated; setup_s is the median.
  for (unsigned Repeat = 0; Repeat != SetupRepeats; ++Repeat) {
    uint64_t Start = nowNs();
    Tracer Off(false);
    for (size_t Program = 0; Program != NumPrograms; ++Program) {
      OpRecord R = runOp(Off, {static_cast<unsigned>(Program), 1});
      if (!R.Ok) {
        Res.fail("set-up: " + R.Why);
        return Res;
      }
    }
    Res.SetupSeconds.push_back(double(nowNs() - Start) * 1e-9);
  }

  PassTotals P;
  if (!O.Trace) {
    runPass(T, O.Seed, O.Seconds, MinBlocks, false, P, Res);
    reportEndToEnd(P, Res);
    return Res;
  }

  // Traced run: each op runs traced and untraced back to back, so host
  // drift cancels out of the tracing overhead.
  T.setEnabled(true);
  runPass(T, O.Seed, O.Seconds / 2, MinTracedBlocks, true, P, Res);
  T.setEnabled(false);
  Attribution A = attribute(T.spans());
  reportAttribution(Res, A,
                    double(P.WallNs) / double(P.UntracedWallNs) - 1);
  reportPerLayer(P, A, Res);
  return Res;
}
