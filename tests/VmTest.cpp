//===- tests/VmTest.cpp - interpreter semantics --------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "vm/Vm.h"
#include "workloads/Examples.h"

#include <gtest/gtest.h>

using namespace pp;
using namespace pp::ir;

namespace {

vm::RunResult runModule(Module &M, uint64_t MaxInsts = 1 << 24) {
  hw::Machine Machine;
  vm::Vm VM(M, Machine);
  VM.setMaxInsts(MaxInsts);
  return VM.run();
}

} // namespace

TEST(Vm, ArithmeticAndComparisons) {
  Module M;
  Function *F = M.addFunction("main", 0);
  IRBuilder IRB(F, F->addBlock("entry"));
  Reg A = IRB.movImm(20);
  Reg B = IRB.movImm(-6);
  Reg Sum = IRB.add(A, B);          // 14
  Reg Product = IRB.mulImm(Sum, 3); // 42
  Reg Quotient = IRB.divImm(Product, 5); // 8
  Reg Remainder = IRB.remImm(Product, 5); // 2
  Reg Shifted = IRB.shlImm(Remainder, 4); // 32
  Reg Combined = IRB.add(Quotient, Shifted); // 40
  Reg Less = IRB.cmpLtImm(Combined, 41); // 1
  Reg Final = IRB.add(Combined, Less); // 41
  IRB.ret(Final);
  M.setMain(F);
  verifyModuleOrDie(M);

  vm::RunResult Result = runModule(M);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Result.ExitValue, 41u);
}

TEST(Vm, SignedDivisionEdgeCases) {
  Module M;
  Function *F = M.addFunction("main", 0);
  IRBuilder IRB(F, F->addBlock("entry"));
  Reg A = IRB.movImm(-7);
  Reg Q = IRB.divImm(A, 2); // -3 (trunc toward zero)
  Reg Zero = IRB.movImm(0);
  Reg DivZero = IRB.divOp(A, Zero); // defined as 0
  Reg Sum = IRB.add(Q, DivZero);
  IRB.ret(Sum);
  M.setMain(F);
  vm::RunResult Result = runModule(M);
  ASSERT_TRUE(Result.Ok);
  EXPECT_EQ(static_cast<int64_t>(Result.ExitValue), -3);
}

TEST(Vm, LoadsStoresAndGlobals) {
  auto M = workloads::buildLoopModule(100);
  vm::RunResult Result = runModule(*M);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  // data[] starts zeroed; body adds i into slot i & 1023 and accumulates.
  // Sum over i of i = 4950.
  EXPECT_EQ(Result.ExitValue, 4950u);
}

TEST(Vm, RecursiveFactorial) {
  Module M;
  Function *Fact = M.addFunction("fact", 1);
  {
    BasicBlock *Entry = Fact->addBlock("entry");
    BasicBlock *Base = Fact->addBlock("base");
    BasicBlock *Recurse = Fact->addBlock("rec");
    IRBuilder IRB(Fact, Entry);
    Reg IsBase = IRB.cmpLeImm(0, 1);
    IRB.condBr(IsBase, Base, Recurse);
    IRB.setBlock(Base);
    IRB.retImm(1);
    IRB.setBlock(Recurse);
    Reg NMinus1 = IRB.subImm(0, 1);
    Reg Sub = IRB.call(Fact, {NMinus1});
    Reg Result = IRB.mul(0, Sub);
    IRB.ret(Result);
  }
  Function *Main = M.addFunction("main", 0);
  {
    IRBuilder IRB(Main, Main->addBlock("entry"));
    Reg N = IRB.movImm(10);
    Reg Result = IRB.call(Fact, {N});
    IRB.ret(Result);
  }
  M.setMain(Main);
  verifyModuleOrDie(M);
  vm::RunResult Result = runModule(M);
  ASSERT_TRUE(Result.Ok);
  EXPECT_EQ(Result.ExitValue, 3628800u);
}

TEST(Vm, IndirectCallsDispatchById) {
  Module M;
  Function *FortyTwo = M.addFunction("f42", 0);
  IRBuilder B42(FortyTwo, FortyTwo->addBlock("entry"));
  B42.retImm(42);
  Function *Seven = M.addFunction("f7", 0);
  IRBuilder B7(Seven, Seven->addBlock("entry"));
  B7.retImm(7);

  Function *Main = M.addFunction("main", 0);
  IRBuilder IRB(Main, Main->addBlock("entry"));
  Reg Id0 = IRB.movImm(FortyTwo->id());
  Reg V0 = IRB.icall(Id0);
  Reg Id1 = IRB.movImm(Seven->id());
  Reg V1 = IRB.icall(Id1);
  Reg Sum = IRB.add(V0, V1);
  IRB.ret(Sum);
  M.setMain(Main);
  vm::RunResult Result = runModule(M);
  ASSERT_TRUE(Result.Ok);
  EXPECT_EQ(Result.ExitValue, 49u);
}

TEST(Vm, IndirectCallToBadIdFails) {
  Module M;
  Function *Main = M.addFunction("main", 0);
  IRBuilder IRB(Main, Main->addBlock("entry"));
  Reg Id = IRB.movImm(99);
  IRB.icall(Id);
  IRB.retImm(0);
  M.setMain(Main);
  vm::RunResult Result = runModule(M);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("invalid function id"), std::string::npos);
}

TEST(Vm, SwitchSelectsCaseAndDefault) {
  Module M;
  Function *F = M.addFunction("pick", 1);
  {
    BasicBlock *Entry = F->addBlock("entry");
    BasicBlock *Default = F->addBlock("default");
    BasicBlock *Case0 = F->addBlock("case0");
    BasicBlock *Case1 = F->addBlock("case1");
    IRBuilder IRB(F, Entry);
    IRB.switchOn(0, Default, {Case0, Case1});
    IRB.setBlock(Case0);
    IRB.retImm(100);
    IRB.setBlock(Case1);
    IRB.retImm(200);
    IRB.setBlock(Default);
    IRB.retImm(999);
  }
  Function *Main = M.addFunction("main", 0);
  IRBuilder IRB(Main, Main->addBlock("entry"));
  Reg V0 = IRB.movImm(0);
  Reg R0 = IRB.call(F, {V0});
  Reg V1 = IRB.movImm(1);
  Reg R1 = IRB.call(F, {V1});
  Reg V9 = IRB.movImm(9);
  Reg R9 = IRB.call(F, {V9});
  Reg Sum = IRB.add(R0, R1);
  Reg Total = IRB.add(Sum, R9);
  IRB.ret(Total);
  M.setMain(Main);
  vm::RunResult Result = runModule(M);
  ASSERT_TRUE(Result.Ok);
  EXPECT_EQ(Result.ExitValue, 1299u);
}

TEST(Vm, FloatingPointPipeline) {
  Module M;
  Function *Main = M.addFunction("main", 0);
  IRBuilder IRB(Main, Main->addBlock("entry"));
  Reg A = IRB.movFpImm(1.5);
  Reg B = IRB.movFpImm(2.25);
  Reg Sum = IRB.fadd(A, B);        // 3.75
  Reg Product = IRB.fmul(Sum, Sum); // 14.0625
  Reg Quotient = IRB.fdiv(Product, B); // 6.25
  Reg AsInt = IRB.fpToInt(Quotient);   // 6
  IRB.ret(AsInt);
  M.setMain(Main);

  hw::Machine Machine;
  vm::Vm VM(M, Machine);
  vm::RunResult Result = VM.run();
  ASSERT_TRUE(Result.Ok);
  EXPECT_EQ(Result.ExitValue, 6u);
  // Chained FP ops must have produced scoreboard stalls.
  EXPECT_GT(Machine.counters().total(hw::Event::FpStall), 0u);
}

TEST(Vm, AllocServesDistinctChunks) {
  Module M;
  Function *Main = M.addFunction("main", 0);
  IRBuilder IRB(Main, Main->addBlock("entry"));
  Reg P1 = IRB.allocImm(64);
  Reg P2 = IRB.allocImm(64);
  Reg V = IRB.movImm(11);
  IRB.store(P1, 0, V);
  Reg W = IRB.movImm(22);
  IRB.store(P2, 0, W);
  Reg L1 = IRB.load(P1, 0);
  Reg L2 = IRB.load(P2, 0);
  Reg Sum = IRB.add(L1, L2);
  IRB.ret(Sum);
  M.setMain(Main);
  vm::RunResult Result = runModule(M);
  ASSERT_TRUE(Result.Ok);
  EXPECT_EQ(Result.ExitValue, 33u);
}

TEST(Vm, SetjmpLongjmpUnwinds) {
  // main: setjmp; if first time call deep(3), else return the longjmp
  // value. deep(n) recurses then longjmps with 77.
  Module M;
  Function *Deep = M.addFunction("deep", 1);
  {
    BasicBlock *Entry = Deep->addBlock("entry");
    BasicBlock *Down = Deep->addBlock("down");
    BasicBlock *Jump = Deep->addBlock("jump");
    IRBuilder IRB(Deep, Entry);
    Reg AtBottom = IRB.cmpLeImm(0, 0);
    IRB.condBr(AtBottom, Jump, Down);
    IRB.setBlock(Down);
    Reg Next = IRB.subImm(0, 1);
    IRB.call(Deep, {Next});
    IRB.retImm(0); // unreachable if longjmp fires
    IRB.setBlock(Jump);
    Reg Value = IRB.movImm(77);
    IRB.longjmp(1, Value);
  }
  Function *Main = M.addFunction("main", 0);
  {
    BasicBlock *Entry = Main->addBlock("entry");
    BasicBlock *First = Main->addBlock("first");
    BasicBlock *Again = Main->addBlock("again");
    IRBuilder IRB(Main, Entry);
    Reg Jumped = IRB.setjmp(1);
    Reg IsZero = IRB.cmpEqImm(Jumped, 0);
    IRB.condBr(IsZero, First, Again);
    IRB.setBlock(First);
    Reg N = IRB.movImm(3);
    IRB.call(Deep, {N});
    IRB.retImm(0); // skipped: longjmp lands at the setjmp
    IRB.setBlock(Again);
    IRB.ret(Jumped);
  }
  M.setMain(Main);
  verifyModuleOrDie(M);
  vm::RunResult Result = runModule(M);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Result.ExitValue, 77u);
}

TEST(Vm, LongjmpToDeadFrameFails) {
  Module M;
  Function *Setter = M.addFunction("setter", 0);
  {
    IRBuilder IRB(Setter, Setter->addBlock("entry"));
    IRB.setjmp(5);
    IRB.retImm(0);
  }
  Function *Main = M.addFunction("main", 0);
  {
    IRBuilder IRB(Main, Main->addBlock("entry"));
    IRB.call(Setter, {});
    Reg V = IRB.movImm(1);
    IRB.longjmp(5, V); // setter's frame is gone
  }
  M.setMain(Main);
  vm::RunResult Result = runModule(M);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("dead frame"), std::string::npos);
}

TEST(Vm, InstructionBudgetStopsInfiniteLoops) {
  Module M;
  Function *Main = M.addFunction("main", 0);
  BasicBlock *Entry = Main->addBlock("entry");
  IRBuilder IRB(Main, Entry);
  IRB.br(Entry);
  M.setMain(Main);
  vm::RunResult Result = runModule(M, 1000);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("budget"), std::string::npos);
  EXPECT_LE(Result.ExecutedInsts, 1001u);
}

TEST(Vm, NullishAccessFails) {
  Module M;
  Function *Main = M.addFunction("main", 0);
  IRBuilder IRB(Main, Main->addBlock("entry"));
  IRB.loadAbs(8); // below the mapped region
  IRB.retImm(0);
  M.setMain(Main);
  vm::RunResult Result = runModule(M);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("unmapped"), std::string::npos);
}

TEST(Vm, TracerSeesControlFlow) {
  struct CountingTracer : vm::Tracer {
    int Edges = 0, Enters = 0, Exits = 0, Calls = 0;
    void onEdgeTaken(const BasicBlock &, int) override { ++Edges; }
    void onEnterFunction(const Function &) override { ++Enters; }
    void onExitFunction(const Function &) override { ++Exits; }
    void onCall(const Function &, const Inst &, const Function &) override {
      ++Calls;
    }
  };
  auto M = workloads::buildFig1Module();
  hw::Machine Machine;
  vm::Vm VM(*M, Machine);
  CountingTracer Tracer;
  VM.setTracer(&Tracer);
  vm::RunResult Result = VM.run();
  ASSERT_TRUE(Result.Ok);
  EXPECT_EQ(Tracer.Enters, 9);  // main + 8 fig1 calls
  EXPECT_EQ(Tracer.Exits, 9);
  EXPECT_EQ(Tracer.Calls, 8);
  EXPECT_GT(Tracer.Edges, 30);
}

TEST(Vm, CodeLayoutAssignsSequentialAddresses) {
  auto M = workloads::buildFig1Module();
  hw::Machine Machine;
  vm::Vm VM(*M, Machine);
  uint64_t Prev = 0;
  for (const auto &F : M->functions())
    for (const auto &BB : F->blocks())
      for (const Inst &I : BB->insts()) {
        EXPECT_GT(I.Addr, Prev);
        Prev = I.Addr;
      }
  EXPECT_EQ(VM.functionEntryAddr(*M->function(0)), layout::CodeBase);
}

TEST(Vm, RuntimeOpWithoutRuntimeFails) {
  Module M;
  Function *Main = M.addFunction("main", 0);
  IRBuilder IRB(Main, Main->addBlock("entry"));
  Inst Op;
  Op.Op = Opcode::CctEnter;
  IRB.append(Op);
  IRB.retImm(0);
  M.setMain(Main);
  vm::RunResult Result = runModule(M);
  EXPECT_FALSE(Result.Ok);
}

namespace {

/// Heap exhaustion, once per engine: both must fail the run with the same
/// error on the same dynamic instruction instead of aborting the process.
class VmHeapTest : public ::testing::TestWithParam<vm::Engine> {
protected:
  vm::RunResult run(Module &M) {
    hw::Machine Machine;
    vm::Vm VM(M, Machine);
    VM.setEngine(GetParam());
    return VM.run();
  }
};

} // namespace

TEST_P(VmHeapTest, OversizedAllocFailsTheRun) {
  ParseResult Parsed = parseModule("func @main(0) regs=8 {\n"
                                   "entry:\n"
                                   "  mov r0, 4611686018427387904\n"
                                   "  alloc r1, r0\n"
                                   "  ret r1\n"
                                   "}\n"
                                   "\n"
                                   "main @main\n");
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  vm::RunResult Result = run(*Parsed.M);
  EXPECT_FALSE(Result.Ok);
  EXPECT_EQ(Result.Error, "simulated program heap exhausted: alloc of "
                          "4611686018427387904 bytes in main");
  EXPECT_EQ(Result.ExecutedInsts, 2u); // the alloc is the failing one
}

TEST_P(VmHeapTest, NegativeAllocFailsInsteadOfWrapping) {
  Module M;
  Function *Main = M.addFunction("main", 0);
  IRBuilder IRB(Main, Main->addBlock("entry"));
  IRB.allocImm(64);
  IRB.allocImm(-64);
  IRB.allocImm(64);
  IRB.retImm(0);
  M.setMain(Main);
  vm::RunResult Result = run(M);
  EXPECT_FALSE(Result.Ok);
  EXPECT_EQ(Result.Error, "simulated program heap exhausted: alloc of "
                          "18446744073709551552 bytes in main");
  EXPECT_EQ(Result.ExecutedInsts, 2u);
}

TEST_P(VmHeapTest, HeapFillsExactlyToItsLimit) {
  // The heap spans [HeapBase, CctHeapBase): the largest single block it
  // can serve is one byte short of the whole span.
  const uint64_t Span = layout::CctHeapBase - layout::HeapBase;
  for (uint64_t Size : {Span - 1, Span}) {
    Module M;
    Function *Main = M.addFunction("main", 0);
    IRBuilder IRB(Main, Main->addBlock("entry"));
    Reg P = IRB.allocImm(static_cast<int64_t>(Size));
    IRB.ret(P);
    M.setMain(Main);
    vm::RunResult Result = run(M);
    EXPECT_EQ(Result.Ok, Size < Span) << Size << ": " << Result.Error;
    if (Result.Ok) {
      EXPECT_EQ(Result.ExitValue, layout::HeapBase);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, VmHeapTest,
                         ::testing::Values(vm::Engine::Reference,
                                           vm::Engine::Threaded),
                         [](const auto &Info) {
                           return std::string(vm::engineName(Info.param));
                         });
