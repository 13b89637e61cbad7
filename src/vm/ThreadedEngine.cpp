//===- vm/ThreadedEngine.cpp - Predecoded threaded-dispatch engine -----------===//
//
// The threaded execution engine: runs the Predecoder's flat DecodedInst
// streams with computed-goto dispatch on GCC/Clang and a portable switch
// loop elsewhere (or when PP_VM_NO_COMPUTED_GOTO is defined).
//
// In the source every handler ends with its own copy of the fetch
// prologue and its own jump through the label table. The compiler does
// not keep the copies apart: GCC 12 at -O2 merges the identical tails, so
// the hook-free and hooked instantiations below have 10 and 7 indirect
// jumps, not one per handler, and the host predictor sees a few shared
// dispatch sites.
//
// The body is a template on Hooks. runThreaded picks Hooks = false when no
// signal handler, trap handler or tracer is installed, which is every
// exact-instrumentation run. That instantiation has no signal, trap or
// tracer checks, and its per-instruction path writes no Machine state in
// the common case: it retires Insts/Cycles in batches (PP_SYNC) and
// probes the I-cache only when the fetch changes lines (PP_ISSUE). The
// Hooks = true instantiation charges the machine per instruction, as the
// reference loop does. bench/vm_throughput measures the result against
// the reference engine (BENCH_vm_throughput.json).
//
// Semantics are intentionally a line-for-line mirror of Vm::runReference:
// the same Machine events in the same order, the same error strings on the
// same dynamic instruction, the same tracer/runtime callbacks. Any
// observable divergence is a bug, and tests/EngineEquivalenceTest.cpp is
// the differential harness that hunts for one. When editing either engine,
// edit both.
//
//===----------------------------------------------------------------------===//

#include "vm/Predecoder.h"
#include "vm/Vm.h"

#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

using namespace pp;
using namespace pp::vm;

#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(PP_VM_NO_COMPUTED_GOTO)
#define PP_CGOTO 1
#else
#define PP_CGOTO 0
#endif

// Refreshes the cached current-frame pointers after any push/pop. The
// program counter is the roaming stream pointer D itself; any handler
// that pushes a frame must write D's index back to FR->InstIdx first
// (Call/ICall/deliver_signal do), and this macro re-seeds D from the
// frame that becomes current. Entering a stream checks the Predecoder's
// proof that no executed instruction can lie past its end (see
// DecodedFunction::StaysInStream), which is what lets the per-instruction
// path go without a bounds check.
#define PP_SET_FRAME()                                                         \
  do {                                                                         \
    FR = &Frames.back();                                                       \
    R = FR->Regs.data();                                                       \
    Rdy = FR->Ready.data();                                                    \
    Code = FR->DF->Stream.data();                                              \
    EX = FR->DF->Extras.data();                                                \
    assert(FR->DF->StaysInStream && "decoded stream can run off its end");     \
    D = Code + FR->InstIdx;                                                    \
  } while (0)

// D's index in the current frame's stream (for frame sync and setjmp).
#define PP_PC() (static_cast<size_t>(D - Code))

// Batched retirement. The hook-free instantiation counts each instruction
// only by decrementing BudgetLeft; its Insts and base-Cycles charge
// reaches the machine's totals as ChargedLeft - BudgetLeft (ChargedLeft is
// BudgetLeft at the last charge) at the next point that can observe them:
// loads and FP ops through PP_NOW; stores, rdpic/wrpic, profiling hooks,
// runtime callbacks and the end of the run through PP_SYNC. Everything
// else the handlers charge is a pure addition to the totals, which
// commutes with the deferred one. The hooked instantiation retires eagerly
// in Machine::beginInst, so signal and trap delivery and every tracer
// callback see exact totals, and both macros reduce to the plain machine
// calls there.
#define PP_SYNC()                                                              \
  do {                                                                         \
    if constexpr (!Hooks) {                                                    \
      MC.chargeInsts(ChargedLeft - BudgetLeft);                                \
      ChargedLeft = BudgetLeft;                                                \
    }                                                                          \
  } while (0)
#define PP_NOW() (Hooks ? MC.now() : MC.now() + (ChargedLeft - BudgetLeft))

// Fetch and issue of the instruction at D, then the budget check: the
// reference loop's beginInst + ++ExecutedInsts > MaxInsts, with the
// budget kept as a countdown (BudgetLeft = MaxInsts - instructions
// issued, so the run is over when it would drop below zero). The
// hook-free instantiation probes the I-cache only when the fetch moves to a new
// line. That skip is exact: only this engine touches the I-cache during a
// run, and CacheSim::access treats a repeat of its last line as a hit
// that changes no replacement state.
#define PP_ISSUE()                                                             \
  do {                                                                         \
    if constexpr (Hooks) {                                                     \
      MC.beginInst(D->Addr);                                                   \
    } else if ((D->Addr & FetchMask) != FetchLine) {                           \
      FetchLine = D->Addr & FetchMask;                                         \
      MC.fetch(D->Addr);                                                       \
    }                                                                          \
    if (BudgetLeft-- == 0)                                                     \
      goto budget_exhausted;                                                   \
  } while (0)

// Per-instruction work shared by both dispatch flavours; mirrors the
// reference loop's head: signal delivery, overflow-trap delivery, fetch,
// issue accounting, instruction budget. The signal countdown ticks before
// the instruction executes rather than after (both engines agree):
// delivery points are identical either way, since the counter decrements
// exactly once per executed instruction between boundary checks. Signal
// and trap checks exist only in the hooked instantiation.
#define PP_PROLOGUE()                                                          \
  do {                                                                         \
    if (Hooks && SigHandler && !InSignal) {                                    \
      if (SignalCountdown == 0)                                                \
        goto deliver_signal;                                                   \
      --SignalCountdown;                                                       \
    }                                                                          \
    if (Hooks && TrapH && MC.counters().overflowPending()) {                   \
      FR->InstIdx = PP_PC();                                                   \
      deliverOverflowTrap(D->Addr);                                            \
    }                                                                          \
    PP_ISSUE();                                                                \
  } while (0)

// The computed-goto flavour writes every handler's tail as the fetch
// prologue plus a jump through the label-address table (how many of those
// tails survive as separate jumps is up to the compiler; see the file
// header). The portable flavour keeps one shared switch at the fetch
// label.
#if PP_CGOTO
#define PP_CASE(Name) H_##Name
#define PP_DISPATCH()                                                          \
  goto *const_cast<void *>(Handlers[static_cast<size_t>(D->Op)])
#define PP_FETCH()                                                             \
  do {                                                                         \
    PP_PROLOGUE();                                                             \
    PP_DISPATCH();                                                             \
  } while (0)
#else
#define PP_FETCH() goto fetch
#define PP_CASE(Name) case DOp::Name
#endif

// Advance past a straight-line instruction and dispatch the next one.
#define PP_NEXT()                                                              \
  do {                                                                         \
    ++D;                                                                       \
    PP_FETCH();                                                                \
  } while (0)

// Straight-line ALU handler pair: register and immediate second operand.
#define PP_ALU(Name, Expr)                                                     \
  PP_CASE(Name##RR) : {                                                        \
    uint64_t Av = R[D->A];                                                     \
    uint64_t Bv = R[D->B];                                                     \
    (void)Av;                                                                  \
    R[D->Dst] = (Expr);                                                        \
    PP_NEXT();                                                                 \
  }                                                                            \
  PP_CASE(Name##RI) : {                                                        \
    uint64_t Av = R[D->A];                                                     \
    uint64_t Bv = static_cast<uint64_t>(D->Imm);                               \
    (void)Av;                                                                  \
    R[D->Dst] = (Expr);                                                        \
    PP_NEXT();                                                                 \
  }

// Signed divide/remainder with the reference engine's edge-case results.
#define PP_DIVREM(Name, IsDiv)                                                 \
  {                                                                            \
    MC.addCycles(MC.cost().DivCycles);                               \
    int64_t Lhs = static_cast<int64_t>(R[D->A]);                               \
    int64_t Rhs = static_cast<int64_t>(Bv);                                    \
    if (Rhs == 0)                                                              \
      R[D->Dst] = (IsDiv) ? 0 : 0;                                             \
    else if (Lhs == std::numeric_limits<int64_t>::min() && Rhs == -1)          \
      R[D->Dst] = (IsDiv) ? static_cast<uint64_t>(Lhs) : 0;                    \
    else                                                                       \
      R[D->Dst] = static_cast<uint64_t>((IsDiv) ? Lhs / Rhs : Lhs % Rhs);      \
    PP_NEXT();                                                                 \
  }

// Fused compare+branch halves: evaluate the compare, store its
// architectural result, and jump to the shared branch tail with the
// condition in FusedCond. Only reachable when no signal handler is
// installed (the Predecoder gates fusion on that), so no delivery check
// is needed at the fused pair's internal boundary.
#define PP_CMPBR(Name, Expr)                                                   \
  PP_CASE(Name##RRBr) : {                                                      \
    uint64_t Av = R[D->A];                                                     \
    uint64_t Bv = R[D->B];                                                     \
    FusedCond = (Expr);                                                        \
    R[D->Dst] = FusedCond;                                                     \
    goto fused_br;                                                             \
  }                                                                            \
  PP_CASE(Name##RIBr) : {                                                      \
    uint64_t Av = R[D->A];                                                     \
    uint64_t Bv = static_cast<uint64_t>(D->Imm);                               \
    FusedCond = (Expr);                                                        \
    R[D->Dst] = FusedCond;                                                     \
    goto fused_br;                                                             \
  }

// FP arithmetic with the scoreboard stall, mirroring the reference engine.
#define PP_FP(Name, ValueExpr, LatencyExpr)                                    \
  PP_CASE(Name) : {                                                            \
    uint64_t ReadyAt = Rdy[D->A];                                              \
    if (!D->bIsImm())                                                            \
      ReadyAt = std::max(ReadyAt, Rdy[D->B]);                                  \
    uint64_t Now = PP_NOW();                                                   \
    if (ReadyAt > Now)                                                         \
      MC.stall(hw::Event::FpStall, ReadyAt - Now);                        \
    double Lhs = std::bit_cast<double>(R[D->A]);                               \
    double Rhs = std::bit_cast<double>(                                        \
        D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B]);                  \
    (void)Lhs;                                                                 \
    (void)Rhs;                                                                 \
    uint64_t Latency = (LatencyExpr);                                          \
    R[D->Dst] = (ValueExpr);                                                   \
    Rdy[D->Dst] = PP_NOW() + Latency;                                          \
    PP_NEXT();                                                                 \
  }

RunResult Vm::runThreaded() {
  // Exact-instrumentation runs install none of the three hooks; they get
  // the instantiation whose per-instruction path writes no Machine state.
  if (SignalHandler || TrapHook || TracerHook)
    return runThreadedImpl<true>();
  return runThreadedImpl<false>();
}

template <bool Hooks> RunResult Vm::runThreadedImpl() {
  RunResult Result;
  ir::Function *Main = M.main();
  if (!Main) {
    Result.Error = "module has no main function";
    return Result;
  }

  // Lower the module once per run; pseudo-op hooks bind to the currently
  // attached runtime, so the stream cannot be reused across setRuntime.
  // Superinstruction fusion is only sound when neither signal delivery
  // nor a counter-overflow trap can preempt the boundary inside a fused
  // pair.
  Decoded = std::make_unique<Predecoder>(
      M, Runtime,
      /*FuseCmpBr=*/SignalHandler == nullptr && TrapHook == nullptr);

  Frames.clear();
  {
    Frame Initial;
    Initial.F = Main;
    Initial.BB = nullptr;
    Initial.InstIdx = 0;
    Initial.DF = &Decoded->function(Main->id());
    Initial.Serial = NextSerial++;
    Initial.RetDst = ir::NoReg;
    Initial.Regs.assign(Main->numRegs(), 0);
    Initial.Ready.assign(Main->numRegs(), 0);
    Frames.push_back(std::move(Initial));
  }
  if (TracerHook)
    TracerHook->onEnterFunction(*Main);

  Result.Ok = true;

  // Hot interpreter state, hoisted into locals so the dispatch loop keeps
  // it in registers: the program counter, the current frame's decoded
  // stream, and run-invariant configuration (setTracer/setRuntime/
  // setSignal/setMaxInsts cannot be called mid-run).
  Frame *FR = nullptr;
  uint64_t *R = nullptr;
  uint64_t *Rdy = nullptr;
  const DecodedInst *Code = nullptr;
  const DecodedExtra *EX = nullptr;
  const DecodedInst *D = nullptr;
  uint64_t BudgetLeft = MaxInsts;
  uint64_t ChargedLeft = BudgetLeft;
  // Line-aligned address of the last fetch; no code address is ~0.
  uint32_t FetchLine = ~uint32_t(0);
  const uint32_t FetchMask = static_cast<uint32_t>(Machine.fetchLineMask());
  uint64_t FusedCond = 0;
  // Every test of a hook is written `Hooks && ...`: the hook-free
  // instantiation knows all three are null, so those tests fold away.
  ir::Function *const SigHandler = SignalHandler;
  TrapHandler *const TrapH = TrapHook;
  Tracer *const TH = TracerHook;
  ProfRuntime *const RT = Runtime;
  hw::Machine &MC = Machine;

#if PP_CGOTO
  // Direct threading: one indirect jump through the label-address table,
  // indexed by the instruction's decoded opcode.
  static const void *const Handlers[] = {
      &&H_MovR,     &&H_MovI,     &&H_AddRR,   &&H_AddRI,   &&H_SubRR,
      &&H_SubRI,    &&H_MulRR,    &&H_MulRI,   &&H_DivRR,   &&H_DivRI,
      &&H_RemRR,    &&H_RemRI,    &&H_AndRR,   &&H_AndRI,   &&H_OrRR,
      &&H_OrRI,     &&H_XorRR,    &&H_XorRI,   &&H_ShlRR,   &&H_ShlRI,
      &&H_ShrRR,    &&H_ShrRI,    &&H_CmpEqRR, &&H_CmpEqRI, &&H_CmpNeRR,
      &&H_CmpNeRI,  &&H_CmpLtRR,  &&H_CmpLtRI, &&H_CmpLeRR, &&H_CmpLeRI,
      &&H_FAdd,     &&H_FSub,     &&H_FMul,    &&H_FDiv,    &&H_FCmpLt,
      &&H_FCmpLe,   &&H_FCmpEq,   &&H_IntToFp, &&H_FpToInt, &&H_LoadAbs,
      &&H_LoadReg,  &&H_StoreAbs, &&H_StoreReg, &&H_Alloc,  &&H_Br,
      &&H_CondBr,   &&H_Switch,   &&H_Ret,     &&H_Call,    &&H_ICall,
      &&H_Setjmp,   &&H_Longjmp,  &&H_RdPic,   &&H_WrPic,   &&H_Prof,
      &&H_ProfNoRuntime,
      &&H_CmpEqRRBr, &&H_CmpEqRIBr, &&H_CmpNeRRBr, &&H_CmpNeRIBr,
      &&H_CmpLtRRBr, &&H_CmpLtRIBr, &&H_CmpLeRRBr, &&H_CmpLeRIBr,
  };
  static_assert(sizeof(Handlers) / sizeof(Handlers[0]) ==
                    static_cast<size_t>(DOp::NumDOps),
                "handler table must cover every decoded op, in enum order");
#endif

  PP_SET_FRAME();
#if PP_CGOTO
  PP_FETCH();
#else
fetch:
  PP_PROLOGUE();
  switch (D->Op) {
#endif

  PP_CASE(MovR) : {
    R[D->Dst] = R[D->B];
    PP_NEXT();
  }
  PP_CASE(MovI) : {
    R[D->Dst] = static_cast<uint64_t>(D->Imm);
    PP_NEXT();
  }

  PP_ALU(Add, Av + Bv)
  PP_ALU(Sub, Av - Bv)
  PP_ALU(Mul, Av *Bv)

  PP_CASE(DivRR) : {
    uint64_t Bv = R[D->B];
    PP_DIVREM(Div, true)
  }
  PP_CASE(DivRI) : {
    uint64_t Bv = static_cast<uint64_t>(D->Imm);
    PP_DIVREM(Div, true)
  }
  PP_CASE(RemRR) : {
    uint64_t Bv = R[D->B];
    PP_DIVREM(Rem, false)
  }
  PP_CASE(RemRI) : {
    uint64_t Bv = static_cast<uint64_t>(D->Imm);
    PP_DIVREM(Rem, false)
  }

  PP_ALU(And, Av &Bv)
  PP_ALU(Or, Av | Bv)
  PP_ALU(Xor, Av ^ Bv)
  PP_ALU(Shl, Av << (Bv & 63))
  PP_ALU(Shr, Av >> (Bv & 63))
  PP_ALU(CmpEq, static_cast<uint64_t>(Av == Bv))
  PP_ALU(CmpNe, static_cast<uint64_t>(Av != Bv))
  PP_ALU(CmpLt, static_cast<uint64_t>(static_cast<int64_t>(Av) <
                                      static_cast<int64_t>(Bv)))
  PP_ALU(CmpLe, static_cast<uint64_t>(static_cast<int64_t>(Av) <=
                                      static_cast<int64_t>(Bv)))

  PP_FP(FAdd, std::bit_cast<uint64_t>(Lhs + Rhs), MC.cost().FpLatency)
  PP_FP(FSub, std::bit_cast<uint64_t>(Lhs - Rhs), MC.cost().FpLatency)
  PP_FP(FMul, std::bit_cast<uint64_t>(Lhs *Rhs), MC.cost().FpLatency)
  PP_FP(FDiv, std::bit_cast<uint64_t>(Lhs / Rhs), MC.cost().FpDivLatency)
  PP_FP(FCmpLt, static_cast<uint64_t>(Lhs < Rhs), 1)
  PP_FP(FCmpLe, static_cast<uint64_t>(Lhs <= Rhs), 1)
  PP_FP(FCmpEq, static_cast<uint64_t>(Lhs == Rhs), 1)

  PP_CASE(IntToFp) : {
    R[D->Dst] = std::bit_cast<uint64_t>(
        static_cast<double>(static_cast<int64_t>(R[D->A])));
    PP_NEXT();
  }
  PP_CASE(FpToInt) : {
    R[D->Dst] = static_cast<uint64_t>(
        static_cast<int64_t>(std::bit_cast<double>(R[D->A])));
    PP_NEXT();
  }

  PP_CASE(LoadAbs) : {
    uint64_t Addr = static_cast<uint64_t>(D->Imm);
    if (Addr < layout::CodeBase) {
      fail(Result, formatString("load from unmapped address 0x%llx in %s",
                                (unsigned long long)Addr,
                                FR->F->name().c_str()));
      goto done;
    }
    R[D->Dst] = MC.load(Addr, D->size());
    Rdy[D->Dst] = PP_NOW() + MC.cost().LoadLatency;
    PP_NEXT();
  }
  PP_CASE(LoadReg) : {
    uint64_t Addr = R[D->A] + static_cast<uint64_t>(D->Imm);
    if (Addr < layout::CodeBase) {
      fail(Result, formatString("load from unmapped address 0x%llx in %s",
                                (unsigned long long)Addr,
                                FR->F->name().c_str()));
      goto done;
    }
    R[D->Dst] = MC.load(Addr, D->size());
    Rdy[D->Dst] = PP_NOW() + MC.cost().LoadLatency;
    PP_NEXT();
  }
  PP_CASE(StoreAbs) : {
    uint64_t Addr = static_cast<uint64_t>(D->Imm);
    if (Addr < layout::CodeBase) {
      fail(Result, formatString("store to unmapped address 0x%llx in %s",
                                (unsigned long long)Addr,
                                FR->F->name().c_str()));
      goto done;
    }
    PP_SYNC(); // the store buffer reads now()
    MC.store(Addr, D->size(),
             D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B]);
    PP_NEXT();
  }
  PP_CASE(StoreReg) : {
    uint64_t Addr = R[D->A] + static_cast<uint64_t>(D->Imm);
    if (Addr < layout::CodeBase) {
      fail(Result, formatString("store to unmapped address 0x%llx in %s",
                                (unsigned long long)Addr,
                                FR->F->name().c_str()));
      goto done;
    }
    PP_SYNC(); // the store buffer reads now()
    MC.store(Addr, D->size(),
             D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B]);
    PP_NEXT();
  }
  PP_CASE(Alloc) : {
    uint64_t Addr;
    if (!heapAlloc(Result,
                   D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B],
                   Addr))
      goto done;
    R[D->Dst] = Addr;
    PP_NEXT();
  }

  PP_CASE(Br) : {
    if (Hooks && TH)
      TH->onEdgeTaken(*EX[PP_PC()].From, 0);
    D = Code + D->T1;
    PP_FETCH();
  }
  PP_CASE(CondBr) : {
    bool Taken = R[D->A] != 0;
    MC.condBranch(D->Addr, Taken);
    if (Hooks && TH)
      TH->onEdgeTaken(*EX[PP_PC()].From, Taken ? 0 : 1);
    D = Code + (Taken ? D->T1 : D->T2);
    PP_FETCH();
  }
  PP_CASE(Switch) : {
    uint64_t Index = R[D->A];
    uint32_t Target;
    int SuccIndex;
    if (Index < D->NTargets) {
      Target = FR->DF->SwitchPool[D->T2 + Index];
      SuccIndex = static_cast<int>(Index) + 1;
    } else {
      Target = D->T1;
      SuccIndex = 0;
    }
    MC.indirectBranch(D->Addr, Code[Target].Addr);
    if (Hooks && TH)
      TH->onEdgeTaken(*EX[PP_PC()].From, SuccIndex);
    D = Code + Target;
    PP_FETCH();
  }
  PP_CASE(Ret) : {
    uint64_t Value = D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B];
    if (Hooks && TH) {
      TH->onEdgeTaken(*EX[PP_PC()].From, -1);
      TH->onExitFunction(*FR->F);
    }
    ir::Reg Dst = FR->RetDst;
    bool WasSignal = FR->IsSignal;
    recycleFrame();
    if (Hooks && WasSignal) {
      // Resume the interrupted instruction stream exactly where it was:
      // the interrupted frame's InstIdx was synced at delivery, so
      // PP_SET_FRAME restores the pre-signal PC unadvanced.
      InSignal = false;
      if (RT)
        RT->onSignalReturn(*this);
      PP_SET_FRAME();
      PP_FETCH();
    }
    if (Frames.empty()) {
      Result.ExitValue = Value;
      goto done;
    }
    PP_SET_FRAME();
    if (Dst != ir::NoReg)
      R[Dst] = Value;
    ++D; // step past the call
    PP_FETCH();
  }

  PP_CASE(Call) : {
    const DecodedExtra &X = EX[PP_PC()];
    ir::Function *Callee = X.Callee;
    if (Frames.size() >= 100000) {
      fail(Result, "call stack overflow (runaway recursion)");
      goto done;
    }
    if (Hooks && TH) {
      TH->onCall(*FR->F, *X.Src, *Callee);
      TH->onEnterFunction(*Callee);
    }
    FR->InstIdx = PP_PC(); // the return path re-reads it via PP_SET_FRAME
    pushFrame(Callee, *FR, *X.Src);
    Frames.back().DF = &Decoded->function(Callee->id());
    PP_SET_FRAME();
    PP_FETCH();
  }
  PP_CASE(ICall) : {
    const DecodedExtra &X = EX[PP_PC()];
    uint64_t Id = R[D->A];
    if (Id >= M.numFunctions()) {
      fail(Result,
           formatString("indirect call to invalid function id %llu in %s",
                        (unsigned long long)Id, FR->F->name().c_str()));
      goto done;
    }
    ir::Function *Callee = M.function(Id);
    MC.indirectBranch(D->Addr, EntryAddrs[Callee->id()]);
    if (Callee->numParams() != X.Src->Args.size()) {
      fail(Result, formatString("indirect call arity mismatch: %s(%u) "
                                "called with %zu args",
                                Callee->name().c_str(), Callee->numParams(),
                                X.Src->Args.size()));
      goto done;
    }
    if (Frames.size() >= 100000) {
      fail(Result, "call stack overflow (runaway recursion)");
      goto done;
    }
    if (Hooks && TH) {
      TH->onCall(*FR->F, *X.Src, *Callee);
      TH->onEnterFunction(*Callee);
    }
    FR->InstIdx = PP_PC(); // the return path re-reads it via PP_SET_FRAME
    pushFrame(Callee, *FR, *X.Src);
    Frames.back().DF = &Decoded->function(Callee->id());
    PP_SET_FRAME();
    PP_FETCH();
  }

  PP_CASE(Setjmp) : {
    JmpBufs[D->Imm] =
        JmpBuf{Frames.size() - 1, FR->Serial, nullptr, PP_PC(), D->Dst};
    R[D->Dst] = 0;
    PP_NEXT();
  }
  PP_CASE(Longjmp) : {
    auto It = JmpBufs.find(D->Imm);
    if (It == JmpBufs.end()) {
      fail(Result,
           formatString("longjmp to unset buffer %lld", (long long)D->Imm));
      goto done;
    }
    const JmpBuf &Buf = It->second;
    if (Buf.FrameIndex >= Frames.size() ||
        Frames[Buf.FrameIndex].Serial != Buf.Serial) {
      fail(Result, formatString("longjmp to dead frame (buffer %lld)",
                                (long long)D->Imm));
      goto done;
    }
    uint64_t Value = D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B];
    PP_SYNC(); // onFrameUnwound may read the counters
    if (Hooks && TH)
      TH->onEdgeTaken(*EX[PP_PC()].From, -1);
    // Unwind every frame above the target without returning through it.
    while (Frames.size() - 1 > Buf.FrameIndex) {
      const ir::Function &Dead = *Frames.back().F;
      bool DeadWasSignal = Frames.back().IsSignal;
      if (RT)
        RT->onFrameUnwound(*this, Dead);
      if (Hooks && TH)
        TH->onUnwindFunction(Dead);
      recycleFrame();
      if (Hooks && DeadWasSignal) {
        InSignal = false;
        if (RT)
          RT->onSignalReturn(*this);
      }
    }
    PP_SET_FRAME();
    D = Code + Buf.InstIdx + 1; // resume after the setjmp
    R[Buf.Dst] = Value;
    PP_FETCH();
  }

  PP_CASE(RdPic) : {
    PP_SYNC();
    R[D->Dst] = MC.counters().readPics();
    PP_NEXT();
  }
  PP_CASE(WrPic) : {
    PP_SYNC();
    MC.counters().writePics(
        D->bIsImm() ? static_cast<uint64_t>(D->Imm) : R[D->B]);
    PP_NEXT();
  }

  PP_CASE(Prof) : {
    const DecodedExtra &X = EX[PP_PC()];
    PP_SYNC(); // hooks read the PICs and charge the machine
    X.Hook(*RT, *this, *X.Src);
    PP_NEXT();
  }
  PP_CASE(ProfNoRuntime) : {
    fail(Result, "profiling pseudo-op executed without a runtime");
    goto done;
  }

  PP_CMPBR(CmpEq, static_cast<uint64_t>(Av == Bv))
  PP_CMPBR(CmpNe, static_cast<uint64_t>(Av != Bv))
  PP_CMPBR(CmpLt, static_cast<uint64_t>(static_cast<int64_t>(Av) <
                                        static_cast<int64_t>(Bv)))
  PP_CMPBR(CmpLe, static_cast<uint64_t>(static_cast<int64_t>(Av) <=
                                        static_cast<int64_t>(Bv)))

#if !PP_CGOTO
  case DOp::NumDOps:
    break;
  }
  unreachable("invalid decoded opcode");
#endif

fused_br : {
  // Second half of a fused compare+branch: D advances onto the CondBr's
  // own slot and replays the fetch prologue for it — minus the signal and
  // overflow-trap checks, which cannot fire here because fusion is
  // disabled whenever either handler is installed.
  assert(!SigHandler && !TrapH && "fused ops require no async handlers");
  ++D;
  PP_ISSUE();
  bool Taken = FusedCond != 0;
  MC.condBranch(D->Addr, Taken);
  if (Hooks && TH)
    TH->onEdgeTaken(*EX[PP_PC()].From, Taken ? 0 : 1);
  D = Code + (Taken ? D->T1 : D->T2);
  PP_FETCH();
}

deliver_signal : {
  // Signal delivery at instruction boundaries (resumption semantics,
  // non-nesting): the handler runs as a fresh frame and the interrupted
  // instruction executes after it returns.
  ++SignalsDelivered;
  SignalCountdown = SignalInterval;
  InSignal = true;
  if (RT)
    RT->onSignalDeliver(*this);
  if (Hooks && TH)
    TH->onEnterFunction(*SigHandler);
  FR->InstIdx = PP_PC(); // Ret from the handler resumes here, unadvanced
  Frame HandlerFrame;
  HandlerFrame.F = SigHandler;
  HandlerFrame.BB = nullptr;
  HandlerFrame.InstIdx = 0;
  HandlerFrame.DF = &Decoded->function(SigHandler->id());
  HandlerFrame.Serial = NextSerial++;
  HandlerFrame.RetDst = ir::NoReg;
  HandlerFrame.IsSignal = true;
  HandlerFrame.Regs.assign(SigHandler->numRegs(), 0);
  HandlerFrame.Ready.assign(SigHandler->numRegs(), 0);
  Frames.push_back(std::move(HandlerFrame));
  PP_SET_FRAME();
  PP_FETCH();
}

budget_exhausted:
  fail(Result, "instruction budget exhausted (likely an infinite loop)");

done:
  PP_SYNC();
  // Modulo 2^64, so a run stopped by the budget reports MaxInsts + 1.
  Result.ExecutedInsts = MaxInsts - BudgetLeft;
  return Result;
}
