//===- tests/ParserTest.cpp - textual IR round-trip tests ----------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "prof/Instrumenter.h"
#include "prof/Session.h"
#include "workloads/Examples.h"
#include "workloads/Spec.h"

#include <gtest/gtest.h>

using namespace pp;
using namespace pp::ir;

namespace {

void expectRoundTrip(const Module &M) {
  std::string First = printModule(M);
  ParseResult Parsed = parseModule(First);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*Parsed.M, Errors)) << Errors.front();
  EXPECT_EQ(printModule(*Parsed.M), First);
}

} // namespace

TEST(Parser, RoundTripsTheExampleModules) {
  expectRoundTrip(*workloads::buildFig1Module());
  expectRoundTrip(*workloads::buildFig4Module());
  expectRoundTrip(*workloads::buildFig5Module());
  expectRoundTrip(*workloads::buildLoopModule(10));
}

TEST(Parser, RoundTripsWorkloads) {
  expectRoundTrip(*workloads::buildCompress(1));
  expectRoundTrip(*workloads::buildLi(1));
  expectRoundTrip(*workloads::buildTomcatv(1));
}

TEST(Parser, RoundTripsInstrumentedModules) {
  auto M = workloads::buildLoopModule(10);
  for (prof::Mode Mo : {prof::Mode::FlowHw, prof::Mode::ContextFlow}) {
    prof::ProfileConfig Config;
    Config.M = Mo;
    prof::Instrumented Instr = prof::instrument(*M, Config);
    expectRoundTrip(*Instr.M);
  }
}

TEST(Parser, ParsedModuleRunsIdentically) {
  auto M = workloads::buildFig1Module();
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::None;
  prof::RunOutcome Original = prof::runProfile(*M, Options);

  ParseResult Parsed = parseModule(printModule(*M));
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  prof::RunOutcome Reparsed = prof::runProfile(*Parsed.M, Options);
  ASSERT_TRUE(Reparsed.Result.Ok);
  EXPECT_EQ(Reparsed.Result.ExitValue, Original.Result.ExitValue);
  EXPECT_EQ(Reparsed.Result.ExecutedInsts, Original.Result.ExecutedInsts);
}

TEST(Parser, HandWrittenProgram) {
  const char *Text = R"(
global @data 64

func @double(1) regs=2 {
entry:
  add r1, r0, r0
  ret r1
}

func @main(0) regs=8 {
entry:
  mov r0, 21
  call r1, @double (r0)
  ret r1
}

main @main
)";
  ParseResult Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::None;
  prof::RunOutcome Run = prof::runProfile(*Parsed.M, Options);
  ASSERT_TRUE(Run.Result.Ok) << Run.Result.Error;
  EXPECT_EQ(Run.Result.ExitValue, 42u);
}

TEST(Parser, ReportsUnknownInstruction) {
  ParseResult Parsed = parseModule("func @main(0) regs=1 {\nentry:\n"
                                   "  frobnicate r0\n  ret 0\n}\nmain @main\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("unknown instruction"), std::string::npos);
  EXPECT_NE(Parsed.Error.find("line 3"), std::string::npos);
}

TEST(Parser, ReportsUnknownBlock) {
  ParseResult Parsed = parseModule(
      "func @main(0) regs=1 {\nentry:\n  br @nowhere\n}\nmain @main\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("unknown block"), std::string::npos);
}

TEST(Parser, ReportsUnknownCallee) {
  ParseResult Parsed = parseModule(
      "func @main(0) regs=2 {\nentry:\n  call r0, @ghost ()\n  ret 0\n}\n"
      "main @main\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("unknown function"), std::string::npos);
}

TEST(Parser, ReportsMissingMain) {
  ParseResult Parsed =
      parseModule("main @ghost\nfunc @f(0) regs=1 {\nentry:\n  ret 0\n}\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("main"), std::string::npos);
}

TEST(Parser, ReportsDuplicateFunction) {
  ParseResult Parsed = parseModule(
      "func @f(0) regs=1 {\nentry:\n  ret 0\n}\n"
      "func @f(0) regs=1 {\nentry:\n  ret 0\n}\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("duplicate"), std::string::npos);
}

TEST(Parser, RejectsTwoInstructionsOnOneLine) {
  // Dropping the trailing 'ret' would leave the block without a
  // terminator, which every later pass asserts on.
  ParseResult Parsed = parseModule("func @main(0) regs=1 {\nentry:\n"
                                   "  mov r0, 1   ret r0\n}\nmain @main\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("line 3"), std::string::npos) << Parsed.Error;
  EXPECT_NE(Parsed.Error.find("'ret r0' after the instruction"),
            std::string::npos)
      << Parsed.Error;
}

TEST(Parser, RejectsBlockWithoutTerminator) {
  ParseResult Parsed = parseModule("func @main(0) regs=1 {\nentry:\n"
                                   "  mov r0, 1\nnext:\n  ret r0\n}\n"
                                   "main @main\n");
  EXPECT_FALSE(Parsed.ok());
  EXPECT_NE(Parsed.Error.find("line 4"), std::string::npos) << Parsed.Error;
  EXPECT_NE(Parsed.Error.find("block 'entry' does not end in a terminator"),
            std::string::npos)
      << Parsed.Error;

  // An empty block, and one cut off by the end of the input.
  EXPECT_FALSE(parseModule("func @main(0) regs=1 {\nentry:\n}\n").ok());
  EXPECT_FALSE(
      parseModule("func @main(0) regs=1 {\nentry:\n  mov r0, 1\n").ok());
}

TEST(Parser, AbsoluteMemoryOperands) {
  ParseResult Parsed = parseModule(
      "func @main(0) regs=4 {\nentry:\n  mov r0, 7\n"
      "  store8 [_ + 268435456], r0\n  load8 r1, [_ + 268435456]\n"
      "  ret r1\n}\nmain @main\n");
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::None;
  prof::RunOutcome Run = prof::runProfile(*Parsed.M, Options);
  ASSERT_TRUE(Run.Result.Ok);
  EXPECT_EQ(Run.Result.ExitValue, 7u);
}

// Global initial contents survive print -> parse for every workload: the
// parsed module holds the same Init bytes, re-prints identically, and runs
// to the same result and event totals as the module it was printed from.
TEST(Parser, RoundTripsGlobalInitializersOfEveryWorkload) {
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::None;
  size_t WorkloadsWithInit = 0;
  for (const workloads::WorkloadSpec &Spec : workloads::spec95Suite()) {
    SCOPED_TRACE(Spec.Name);
    auto Built = workloads::buildWorkload(Spec.Name, 1);
    ASSERT_TRUE(Built);
    std::string Text = printModule(*Built);
    ParseResult Parsed = parseModule(Text);
    ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
    EXPECT_EQ(printModule(*Parsed.M), Text);

    ASSERT_EQ(Parsed.M->numGlobals(), Built->numGlobals());
    bool HasInit = false;
    for (size_t Index = 0; Index != Built->numGlobals(); ++Index) {
      const Global &A = Built->global(Index);
      const Global &B = Parsed.M->global(Index);
      EXPECT_EQ(A.Name, B.Name);
      EXPECT_EQ(A.Size, B.Size);
      EXPECT_EQ(A.Addr, B.Addr);
      EXPECT_EQ(A.Init, B.Init) << "global @" << A.Name;
      HasInit |= !A.Init.empty();
    }
    WorkloadsWithInit += HasInit;

    prof::RunOutcome Original = prof::runProfile(*Built, Options);
    prof::RunOutcome Reparsed = prof::runProfile(*Parsed.M, Options);
    ASSERT_TRUE(Original.Result.Ok) << Original.Result.Error;
    EXPECT_EQ(Reparsed.Result.Ok, Original.Result.Ok);
    EXPECT_EQ(Reparsed.Result.Error, Original.Result.Error);
    EXPECT_EQ(Reparsed.Result.ExitValue, Original.Result.ExitValue);
    EXPECT_EQ(Reparsed.Result.ExecutedInsts, Original.Result.ExecutedInsts);
    EXPECT_EQ(Reparsed.Totals, Original.Totals);
  }
  // The property is only tested if some workloads carry initial data.
  EXPECT_GT(WorkloadsWithInit, 0u);
}

TEST(Parser, ParsesGlobalInitializer) {
  ParseResult Parsed = parseModule("global @tab 8 init 0a0B00ff\n"
                                   "func @main(0) regs=2 {\nentry:\n"
                                   "  load4 r0, [_ + 268435456]\n  ret r0\n}\n"
                                   "main @main\n");
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  EXPECT_EQ(Parsed.M->global(0).Init,
            (std::vector<uint8_t>{0x0a, 0x0b, 0x00, 0xff}));
  EXPECT_EQ(Parsed.M->global(0).Size, 8u);
  prof::SessionOptions Options;
  Options.Config.M = prof::Mode::None;
  prof::RunOutcome Run = prof::runProfile(*Parsed.M, Options);
  ASSERT_TRUE(Run.Result.Ok) << Run.Result.Error;
  EXPECT_EQ(Run.Result.ExitValue, 0xff000b0au);
}

TEST(Parser, RejectsMalformedGlobalInitializer) {
  auto ErrorOf = [](const char *Global) {
    ParseResult Parsed = parseModule(std::string(Global) +
                                     "\nfunc @main(0) regs=1 {\nentry:\n"
                                     "  ret 0\n}\nmain @main\n");
    EXPECT_FALSE(Parsed.ok()) << Global;
    return Parsed.Error;
  };
  EXPECT_EQ(ErrorOf("global @g 4 init 0g"),
            "line 1: bad hex digit in initializer of global '@g'");
  EXPECT_EQ(ErrorOf("global @g 4 init 012"),
            "line 1: initializer of global '@g' needs two hex digits per byte");
  EXPECT_EQ(ErrorOf("global @g 4 init"),
            "line 1: initializer of global '@g' needs two hex digits per byte");
  EXPECT_EQ(ErrorOf("global @g 2 init 000102"),
            "line 1: initializer of global '@g' has 3 bytes, more than its "
            "size 2");
  EXPECT_EQ(ErrorOf("global @g 2 init 0001 00"),
            "line 1: unexpected text after global '@g'");
}
