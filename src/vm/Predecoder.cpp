//===- vm/Predecoder.cpp - Predecoded instruction streams --------------------===//

#include "vm/Predecoder.h"

#include "support/Error.h"

#include <cassert>
#include <unordered_map>

using namespace pp;
using namespace pp::vm;
using ir::Inst;
using ir::Opcode;

Predecoder::Predecoder(ir::Module &M, ProfRuntime *RT, bool FuseCmpBr) {
  Funcs.resize(M.numFunctions());
  for (const auto &F : M.functions())
    decodeFunction(*F, RT, FuseCmpBr, Funcs[F->id()]);
}

namespace {

/// Maps a register-or-immediate opcode to its RR/RI decoded variant.
DOp splitRI(bool BIsImm, DOp RR, DOp RI) { return BIsImm ? RI : RR; }

/// The fused variant of a compare op, or NumDOps if \p Op is not a
/// fusable compare.
DOp fusedCmpBr(DOp Op) {
  switch (Op) {
  case DOp::CmpEqRR:
    return DOp::CmpEqRRBr;
  case DOp::CmpEqRI:
    return DOp::CmpEqRIBr;
  case DOp::CmpNeRR:
    return DOp::CmpNeRRBr;
  case DOp::CmpNeRI:
    return DOp::CmpNeRIBr;
  case DOp::CmpLtRR:
    return DOp::CmpLtRRBr;
  case DOp::CmpLtRI:
    return DOp::CmpLtRIBr;
  case DOp::CmpLeRR:
    return DOp::CmpLeRRBr;
  case DOp::CmpLeRI:
    return DOp::CmpLeRIBr;
  default:
    return DOp::NumDOps;
  }
}

/// The DecodedFunction::StaysInStream proof for \p DF.
bool streamStaysInBounds(const DecodedFunction &DF) {
  const std::vector<DecodedInst> &S = DF.Stream;
  if (S.empty() || !ir::isTerminator(DF.Extras.back().Src->Op))
    return false;
  for (const DecodedInst &D : S) {
    bool Ok = true;
    if (D.Op == DOp::Br)
      Ok = D.T1 < S.size();
    else if (D.Op == DOp::CondBr)
      Ok = D.T1 < S.size() && D.T2 < S.size();
    else if (D.Op == DOp::Switch) {
      Ok = D.T1 < S.size();
      for (uint32_t Index = 0; Ok && Index != D.NTargets; ++Index)
        Ok = DF.SwitchPool[D.T2 + Index] < S.size();
    }
    if (!Ok)
      return false;
  }
  return true;
}

} // namespace

void Predecoder::decodeFunction(ir::Function &F, ProfRuntime *RT,
                                bool FuseCmpBr, DecodedFunction &Out) {
  Out.F = &F;

  // Pass 1: stream offset of each block's first instruction. Blocks are
  // walked in creation order, matching the loader's address layout.
  std::unordered_map<const ir::BasicBlock *, uint32_t> BlockOffset;
  uint32_t Offset = 0;
  for (const auto &BB : F.blocks()) {
    BlockOffset[BB.get()] = Offset;
    Offset += static_cast<uint32_t>(BB->insts().size());
  }
  Out.Stream.reserve(Offset);
  Out.Extras.reserve(Offset);
  assert(F.numRegs() < 0xffff && "register numbers must fit 16 bits");

  // Pass 2: emit.
  for (const auto &BB : F.blocks()) {
    for (const Inst &I : BB->insts()) {
      DecodedInst D;
      D.Flags = (I.BIsImm ? DecodedInst::FlagBIsImm : 0) |
                static_cast<uint8_t>(I.Size << 1);
      D.Dst = static_cast<uint16_t>(I.Dst);
      D.A = static_cast<uint16_t>(I.A);
      D.B = static_cast<uint16_t>(I.B);
      D.Imm = I.Imm;
      assert(I.Addr <= 0xffffffffull && "simulated code address exceeds 32 bits");
      D.Addr = static_cast<uint32_t>(I.Addr);
      DecodedExtra E;
      E.Src = &I;
      E.From = BB.get();

      switch (I.Op) {
      case Opcode::Mov:
        D.Op = splitRI(I.BIsImm, DOp::MovR, DOp::MovI);
        break;
      case Opcode::Add:
        D.Op = splitRI(I.BIsImm, DOp::AddRR, DOp::AddRI);
        break;
      case Opcode::Sub:
        D.Op = splitRI(I.BIsImm, DOp::SubRR, DOp::SubRI);
        break;
      case Opcode::Mul:
        D.Op = splitRI(I.BIsImm, DOp::MulRR, DOp::MulRI);
        break;
      case Opcode::Div:
        D.Op = splitRI(I.BIsImm, DOp::DivRR, DOp::DivRI);
        break;
      case Opcode::Rem:
        D.Op = splitRI(I.BIsImm, DOp::RemRR, DOp::RemRI);
        break;
      case Opcode::And:
        D.Op = splitRI(I.BIsImm, DOp::AndRR, DOp::AndRI);
        break;
      case Opcode::Or:
        D.Op = splitRI(I.BIsImm, DOp::OrRR, DOp::OrRI);
        break;
      case Opcode::Xor:
        D.Op = splitRI(I.BIsImm, DOp::XorRR, DOp::XorRI);
        break;
      case Opcode::Shl:
        D.Op = splitRI(I.BIsImm, DOp::ShlRR, DOp::ShlRI);
        break;
      case Opcode::Shr:
        D.Op = splitRI(I.BIsImm, DOp::ShrRR, DOp::ShrRI);
        break;
      case Opcode::CmpEq:
        D.Op = splitRI(I.BIsImm, DOp::CmpEqRR, DOp::CmpEqRI);
        break;
      case Opcode::CmpNe:
        D.Op = splitRI(I.BIsImm, DOp::CmpNeRR, DOp::CmpNeRI);
        break;
      case Opcode::CmpLt:
        D.Op = splitRI(I.BIsImm, DOp::CmpLtRR, DOp::CmpLtRI);
        break;
      case Opcode::CmpLe:
        D.Op = splitRI(I.BIsImm, DOp::CmpLeRR, DOp::CmpLeRI);
        break;

      case Opcode::FAdd:
        D.Op = DOp::FAdd;
        break;
      case Opcode::FSub:
        D.Op = DOp::FSub;
        break;
      case Opcode::FMul:
        D.Op = DOp::FMul;
        break;
      case Opcode::FDiv:
        D.Op = DOp::FDiv;
        break;
      case Opcode::FCmpLt:
        D.Op = DOp::FCmpLt;
        break;
      case Opcode::FCmpLe:
        D.Op = DOp::FCmpLe;
        break;
      case Opcode::FCmpEq:
        D.Op = DOp::FCmpEq;
        break;
      case Opcode::IntToFp:
        D.Op = DOp::IntToFp;
        break;
      case Opcode::FpToInt:
        D.Op = DOp::FpToInt;
        break;

      case Opcode::Load:
        D.Op = I.A == ir::NoReg ? DOp::LoadAbs : DOp::LoadReg;
        break;
      case Opcode::Store:
        D.Op = I.A == ir::NoReg ? DOp::StoreAbs : DOp::StoreReg;
        break;
      case Opcode::Alloc:
        D.Op = DOp::Alloc;
        break;

      case Opcode::Br:
        D.Op = DOp::Br;
        D.T1 = BlockOffset.at(I.T1);
        break;
      case Opcode::CondBr:
        D.Op = DOp::CondBr;
        D.T1 = BlockOffset.at(I.T1);
        D.T2 = BlockOffset.at(I.T2);
        break;
      case Opcode::Switch:
        D.Op = DOp::Switch;
        D.T1 = BlockOffset.at(I.T1);
        D.T2 = static_cast<uint32_t>(Out.SwitchPool.size());
        D.NTargets = static_cast<uint32_t>(I.SwitchTargets.size());
        for (const ir::BasicBlock *Target : I.SwitchTargets)
          Out.SwitchPool.push_back(BlockOffset.at(Target));
        break;
      case Opcode::Ret:
        D.Op = DOp::Ret;
        break;

      case Opcode::Call:
        D.Op = DOp::Call;
        E.Callee = I.Callee;
        break;
      case Opcode::ICall:
        D.Op = DOp::ICall;
        break;

      case Opcode::Setjmp:
        D.Op = DOp::Setjmp;
        break;
      case Opcode::Longjmp:
        D.Op = DOp::Longjmp;
        break;

      case Opcode::RdPic:
        D.Op = DOp::RdPic;
        break;
      case Opcode::WrPic:
        D.Op = DOp::WrPic;
        break;

      case Opcode::PathHashCommit:
      case Opcode::CctEnter:
      case Opcode::CctCall:
      case Opcode::CctExit:
      case Opcode::CctPathCommit:
      case Opcode::CctHwProbe:
        // Bind the runtime hook once here; the no-runtime case becomes a
        // decoded op that fails on execution (not eagerly at decode —
        // the reference engine only fails if the op actually runs).
        if (RT) {
          D.Op = DOp::Prof;
          E.Hook = RT->bindOp(I);
        } else {
          D.Op = DOp::ProfNoRuntime;
        }
        break;

      case Opcode::NumOpcodes:
        unreachable("invalid opcode");
      }
      Out.Stream.push_back(D);
      Out.Extras.push_back(E);
    }
  }

  Out.StaysInStream = streamStaysInBounds(Out);

  // Fusion pass: a compare feeding the immediately following CondBr
  // becomes one superinstruction. The CondBr keeps its slot (so branch
  // targets and addresses are unchanged and the fused handler reads its
  // operands from the next slot); only the compare's opcode is rewritten.
  // A compare is never a terminator, so Stream[I + 1] is always the same
  // block's next instruction.
  if (FuseCmpBr) {
    for (size_t I = 0; I + 1 < Out.Stream.size(); ++I) {
      DecodedInst &Cmp = Out.Stream[I];
      const DecodedInst &Br = Out.Stream[I + 1];
      DOp Fused = fusedCmpBr(Cmp.Op);
      if (Fused != DOp::NumDOps && Br.Op == DOp::CondBr && Br.A == Cmp.Dst)
        Cmp.Op = Fused;
    }
  }
}
