//===- tests/EngineEquivalenceTest.cpp - reference vs threaded engine ---------===//
//
// The differential layer behind the two-engine VM: every observable a run
// produces — RunResult (including error strings), ground-truth counter
// totals, path profiles, reconstructed edge profiles, and the serialized
// CCT — must be bit-identical between the reference interpreter and the
// predecoded threaded engine, for every profiling mode, over a wide sweep
// of random programs that exercise recursion, indirect calls, switches,
// the FP scoreboard, setjmp/longjmp unwinding, and signal delivery. The
// sweep runs once with a signal handler (the engine's hooked
// instantiation) and once without (the hook-free one, with batched
// retirement and fused compare+branch).
//
// $PP_ENGINE_EQ_SEEDS widens the sweep (default: 64 seeds).
//
//===----------------------------------------------------------------------===//

#include "cct/Export.h"
#include "prof/Oracle.h"
#include "prof/Session.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <map>

using namespace pp;
using prof::Mode;

namespace {

constexpr Mode AllModes[] = {Mode::None,      Mode::Edge,
                             Mode::Flow,      Mode::FlowHw,
                             Mode::Context,   Mode::ContextHw,
                             Mode::ContextFlow, Mode::ContextFlowHw};

testutil::RandomProgramOptions fullCoverage() {
  testutil::RandomProgramOptions Opts;
  Opts.WithFp = true;
  Opts.WithSetjmp = true;
  Opts.WithSignalHandler = true;
  return Opts;
}

/// Asserts that two runs are observably identical, bit for bit.
void expectSameOutcome(const prof::RunOutcome &Ref, const prof::RunOutcome &Thr,
                       const std::string &Label) {
  EXPECT_EQ(Ref.Result.Ok, Thr.Result.Ok) << Label;
  EXPECT_EQ(Ref.Result.Error, Thr.Result.Error) << Label;
  EXPECT_EQ(Ref.Result.ExitValue, Thr.Result.ExitValue) << Label;
  EXPECT_EQ(Ref.Result.ExecutedInsts, Thr.Result.ExecutedInsts) << Label;

  // Ground-truth event totals: every cycle, miss, stall, and mispredict.
  for (unsigned E = 0; E != hw::NumEvents; ++E)
    EXPECT_EQ(Ref.Totals[E], Thr.Totals[E])
        << Label << " event " << hw::eventName(static_cast<hw::Event>(E));

  // Path profiles, including the per-path hardware metrics.
  ASSERT_EQ(Ref.PathProfiles.size(), Thr.PathProfiles.size()) << Label;
  for (size_t Id = 0; Id != Ref.PathProfiles.size(); ++Id) {
    const prof::FunctionPathProfile &A = Ref.PathProfiles[Id];
    const prof::FunctionPathProfile &B = Thr.PathProfiles[Id];
    EXPECT_EQ(A.FuncId, B.FuncId) << Label;
    EXPECT_EQ(A.HasProfile, B.HasProfile) << Label;
    EXPECT_EQ(A.NumPaths, B.NumPaths) << Label;
    EXPECT_EQ(A.Hashed, B.Hashed) << Label;
    ASSERT_EQ(A.Paths.size(), B.Paths.size()) << Label << " func " << Id;
    for (size_t P = 0; P != A.Paths.size(); ++P) {
      EXPECT_EQ(A.Paths[P].PathSum, B.Paths[P].PathSum) << Label;
      EXPECT_EQ(A.Paths[P].Freq, B.Paths[P].Freq) << Label;
      EXPECT_EQ(A.Paths[P].Metric0, B.Paths[P].Metric0) << Label;
      EXPECT_EQ(A.Paths[P].Metric1, B.Paths[P].Metric1) << Label;
    }
  }

  // Edge profiles reconstructed from chord counters.
  ASSERT_EQ(Ref.EdgeProfiles.size(), Thr.EdgeProfiles.size()) << Label;
  for (size_t Id = 0; Id != Ref.EdgeProfiles.size(); ++Id) {
    EXPECT_EQ(Ref.EdgeProfiles[Id].HasProfile, Thr.EdgeProfiles[Id].HasProfile)
        << Label;
    EXPECT_EQ(Ref.EdgeProfiles[Id].EdgeCounts, Thr.EdgeProfiles[Id].EdgeCounts)
        << Label << " func " << Id;
    EXPECT_EQ(Ref.EdgeProfiles[Id].Invocations,
              Thr.EdgeProfiles[Id].Invocations)
        << Label;
  }

  // The CCT, compared through both export formats.
  ASSERT_EQ(static_cast<bool>(Ref.Tree), static_cast<bool>(Thr.Tree)) << Label;
  if (Ref.Tree) {
    EXPECT_EQ(cct::serialize(*Ref.Tree), cct::serialize(*Thr.Tree)) << Label;
    EXPECT_EQ(cct::exportDot(*Ref.Tree), cct::exportDot(*Thr.Tree)) << Label;
  }
}

class EngineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

// The main sweep: one random program per seed, run under every profiling
// mode on both engines, with signals firing throughout.
TEST_P(EngineEquivalenceTest, AllModesBitIdentical) {
  auto M = testutil::makeRandomProgram(GetParam(), fullCoverage());

  for (Mode Md : AllModes) {
    prof::SessionOptions Options;
    Options.Config.M = Md;
    Options.SignalHandler = "sighandler";
    Options.SignalInterval = 97;

    Options.Engine = vm::Engine::Reference;
    prof::RunOutcome Ref = prof::runProfile(*M, Options);
    Options.Engine = vm::Engine::Threaded;
    prof::RunOutcome Thr = prof::runProfile(*M, Options);

    std::string Label = std::string("mode=") + prof::modeName(Md) + " seed=" +
                        std::to_string(GetParam());
    EXPECT_TRUE(Ref.Result.Ok) << Label << ": " << Ref.Result.Error;
    expectSameOutcome(Ref, Thr, Label);
  }
}

// Tracer parity at the Vm level: the oracle profiles built from tracer
// callbacks (path walks, edge counts, call counts) must match exactly —
// the callbacks fire in the same order with the same arguments.
TEST_P(EngineEquivalenceTest, OracleTracerParity) {
  auto M = testutil::makeRandomProgram(GetParam(), fullCoverage());

  auto RunWith = [&](vm::Engine E, prof::OracleProfiler &Oracle) {
    hw::Machine Machine;
    vm::Vm VM(*M, Machine);
    VM.setEngine(E);
    VM.setTracer(&Oracle);
    return VM.run();
  };

  prof::OracleProfiler RefOracle(*M), ThrOracle(*M);
  vm::RunResult Ref = RunWith(vm::Engine::Reference, RefOracle);
  vm::RunResult Thr = RunWith(vm::Engine::Threaded, ThrOracle);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  ASSERT_TRUE(Thr.Ok) << Thr.Error;
  EXPECT_EQ(Ref.ExitValue, Thr.ExitValue);
  EXPECT_EQ(Ref.ExecutedInsts, Thr.ExecutedInsts);

  for (size_t Id = 0; Id != M->numFunctions(); ++Id) {
    std::map<uint64_t, uint64_t> RefPaths(RefOracle.pathFreqs(Id).begin(),
                                          RefOracle.pathFreqs(Id).end());
    std::map<uint64_t, uint64_t> ThrPaths(ThrOracle.pathFreqs(Id).begin(),
                                          ThrOracle.pathFreqs(Id).end());
    EXPECT_EQ(RefPaths, ThrPaths) << "func " << Id;
    EXPECT_EQ(RefOracle.edgeCounts(Id), ThrOracle.edgeCounts(Id))
        << "func " << Id;
    EXPECT_EQ(RefOracle.callCount(Id), ThrOracle.callCount(Id))
        << "func " << Id;
  }
}

// Failure parity: a run that dies must die identically — same error
// string, same executed-instruction count at the point of death.
TEST_P(EngineEquivalenceTest, BudgetExhaustionIsIdentical) {
  auto M = testutil::makeRandomProgram(GetParam(), fullCoverage());

  auto RunWith = [&](vm::Engine E, uint64_t MaxInsts) {
    hw::Machine Machine;
    vm::Vm VM(*M, Machine);
    VM.setEngine(E);
    VM.setMaxInsts(MaxInsts);
    return VM.run();
  };

  // Probe the program's full length, then allow only half of it so the
  // budget trips mid-run on every seed.
  vm::RunResult Probe = RunWith(vm::Engine::Reference, uint64_t(1) << 34);
  ASSERT_TRUE(Probe.Ok) << Probe.Error;
  uint64_t Budget = Probe.ExecutedInsts / 2;
  ASSERT_GT(Budget, 0u);

  vm::RunResult Ref = RunWith(vm::Engine::Reference, Budget);
  vm::RunResult Thr = RunWith(vm::Engine::Threaded, Budget);
  EXPECT_EQ(Ref.Ok, Thr.Ok);
  EXPECT_EQ(Ref.Error, Thr.Error);
  EXPECT_EQ(Ref.ExecutedInsts, Thr.ExecutedInsts);
  EXPECT_FALSE(Ref.Ok);
  EXPECT_EQ(Ref.Error, "instruction budget exhausted (likely an infinite loop)");
}

// The hook-free leg: no signal handler, trap handler or tracer, so the
// threaded engine runs the instantiation that batches instruction
// retirement and filters I-cache fetches by line, with compare+branch
// fusion on. Every mode runs to completion and again with half that many
// instructions of budget, under the default caches and under the small
// direct-mapped I-cache that makes nearly every line change a miss.
TEST_P(EngineEquivalenceTest, HookFreeAllModesBitIdentical) {
  auto M = testutil::makeRandomProgram(GetParam(), fullCoverage());
  hw::MachineConfig SmallICache;
  SmallICache.ICache = hw::CacheConfig{256, 64, 1};

  for (const hw::MachineConfig &Cfg : {hw::MachineConfig(), SmallICache}) {
    for (Mode Md : AllModes) {
      prof::SessionOptions Options;
      Options.Config.M = Md;
      Options.MachineCfg = Cfg;
      std::string Label = std::string("mode=") + prof::modeName(Md) +
                          " icache=" + std::to_string(Cfg.ICache.SizeBytes) +
                          " seed=" + std::to_string(GetParam());

      Options.Engine = vm::Engine::Reference;
      prof::RunOutcome Ref = prof::runProfile(*M, Options);
      Options.Engine = vm::Engine::Threaded;
      prof::RunOutcome Thr = prof::runProfile(*M, Options);
      EXPECT_TRUE(Ref.Result.Ok) << Label << ": " << Ref.Result.Error;
      expectSameOutcome(Ref, Thr, Label);

      Options.MaxInsts = Ref.Result.ExecutedInsts / 2;
      Options.Engine = vm::Engine::Reference;
      prof::RunOutcome RefCut = prof::runProfile(*M, Options);
      Options.Engine = vm::Engine::Threaded;
      prof::RunOutcome ThrCut = prof::runProfile(*M, Options);
      EXPECT_EQ(RefCut.Result.Error,
                "instruction budget exhausted (likely an infinite loop)")
          << Label;
      expectSameOutcome(RefCut, ThrCut, Label + " budget=half");
    }
  }
}

// Heap exhaustion fails the run on the same dynamic instruction with the
// same error and the same machine state on both engines, whatever runtime
// hooks the mode brings along.
TEST(EngineEquivalence, HeapExhaustionIsIdentical) {
  // main: allocate 1 MiB chunks, touching each, until the heap runs out.
  ir::Module M;
  ir::Function *Main = M.addFunction("main", 0);
  ir::IRBuilder IRB(Main, Main->addBlock("entry"));
  ir::BasicBlock *Loop = Main->addBlock("loop");
  IRB.br(Loop);
  IRB.setBlock(Loop);
  ir::Reg P = IRB.allocImm(1 << 20);
  IRB.store(P, 0, P);
  IRB.br(Loop);
  M.setMain(Main);
  ir::verifyModuleOrDie(M);

  for (Mode Md : AllModes) {
    prof::SessionOptions Options;
    Options.Config.M = Md;
    Options.Engine = vm::Engine::Reference;
    prof::RunOutcome Ref = prof::runProfile(M, Options);
    Options.Engine = vm::Engine::Threaded;
    prof::RunOutcome Thr = prof::runProfile(M, Options);
    std::string Label = std::string("mode=") + prof::modeName(Md);
    EXPECT_FALSE(Ref.Result.Ok) << Label;
    EXPECT_EQ(Ref.Result.Error, "simulated program heap exhausted: alloc of "
                                "1048576 bytes in main")
        << Label;
    expectSameOutcome(Ref, Thr, Label);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EngineEquivalenceTest,
    ::testing::Range<uint64_t>(
        0, testutil::seedCountFromEnv("PP_ENGINE_EQ_SEEDS", 64)));
