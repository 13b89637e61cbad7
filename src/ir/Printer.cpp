//===- ir/Printer.cpp - Textual IR output ----------------------------------===//

#include "ir/Printer.h"

#include "ir/Module.h"
#include "support/Format.h"

using namespace pp;
using namespace pp::ir;

static std::string regName(Reg R) {
  if (R == NoReg)
    return "_";
  return formatString("r%u", R);
}

static std::string operandB(const Inst &I) {
  if (I.BIsImm)
    return formatString("%lld", static_cast<long long>(I.Imm));
  return regName(I.B);
}

std::string ir::printInst(const Inst &I) {
  std::string Out = opcodeName(I.Op);
  switch (I.Op) {
  case Opcode::Mov:
    return Out + " " + regName(I.Dst) + ", " + operandB(I);
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FCmpLt:
  case Opcode::FCmpLe:
  case Opcode::FCmpEq:
    return Out + " " + regName(I.Dst) + ", " + regName(I.A) + ", " +
           operandB(I);
  case Opcode::IntToFp:
  case Opcode::FpToInt:
    return Out + " " + regName(I.Dst) + ", " + regName(I.A);
  case Opcode::Load:
    return Out + formatString("%u ", unsigned(I.Size)) + regName(I.Dst) +
           ", [" + regName(I.A) + formatString(" + %lld]",
                                               static_cast<long long>(I.Imm));
  case Opcode::Store:
    return Out + formatString("%u [", unsigned(I.Size)) + regName(I.A) +
           formatString(" + %lld], ", static_cast<long long>(I.Imm)) +
           operandB(I);
  case Opcode::Alloc:
    return Out + " " + regName(I.Dst) + ", " + operandB(I);
  case Opcode::Br:
    return Out + " @" + I.T1->name();
  case Opcode::CondBr:
    return Out + " " + regName(I.A) + ", @" + I.T1->name() + ", @" +
           I.T2->name();
  case Opcode::Switch: {
    Out += " " + regName(I.A) + ", @" + I.T1->name() + " [";
    for (size_t Index = 0; Index != I.SwitchTargets.size(); ++Index) {
      if (Index)
        Out += ", ";
      Out += "@" + I.SwitchTargets[Index]->name();
    }
    return Out + "]";
  }
  case Opcode::Ret:
    return Out + " " + operandB(I);
  case Opcode::Call:
  case Opcode::ICall: {
    Out += " " + regName(I.Dst) + ", ";
    Out += I.Op == Opcode::Call ? ("@" + I.Callee->name()) : regName(I.A);
    Out += " (";
    for (size_t Index = 0; Index != I.Args.size(); ++Index) {
      if (Index)
        Out += ", ";
      Out += regName(I.Args[Index]);
    }
    return Out + ")";
  }
  case Opcode::Setjmp:
    return Out + " " + regName(I.Dst) +
           formatString(", %lld", static_cast<long long>(I.Imm));
  case Opcode::Longjmp:
    return Out + formatString(" %lld, ", static_cast<long long>(I.Imm)) +
           operandB(I);
  case Opcode::RdPic:
    return Out + " " + regName(I.Dst);
  case Opcode::WrPic:
    return Out + " " + operandB(I);
  case Opcode::PathHashCommit:
    return Out + formatString(" %lld, ", static_cast<long long>(I.Imm)) +
           regName(I.A) + ", " + regName(I.B);
  case Opcode::CctEnter:
  case Opcode::CctExit:
    return Out;
  case Opcode::CctCall:
  case Opcode::CctHwProbe:
    return Out + formatString(" %lld", static_cast<long long>(I.Imm));
  case Opcode::CctPathCommit:
    return Out + " " + regName(I.A) + ", " + regName(I.B);
  case Opcode::NumOpcodes:
    break;
  }
  return Out + " <?>";
}

std::string ir::printBlock(const BasicBlock &BB) {
  std::string Out = BB.name() + ":\n";
  for (const Inst &I : BB.insts())
    Out += "  " + printInst(I) + "\n";
  return Out;
}

std::string ir::printFunction(const Function &F) {
  std::string Out =
      formatString("func @%s(%u) regs=%u {\n", F.name().c_str(),
                   F.numParams(), F.numRegs());
  for (const auto &BB : F.blocks())
    Out += printBlock(*BB);
  return Out + "}\n";
}

std::string ir::printModule(const Module &M) {
  std::string Out;
  for (size_t Index = 0; Index != M.numGlobals(); ++Index) {
    const Global &G = M.global(Index);
    Out += formatString("global @%s %llu", G.Name.c_str(),
                        static_cast<unsigned long long>(G.Size));
    if (!G.Init.empty()) {
      // Initial contents as one hex string, two digits per byte; bytes
      // past Init (up to Size) stay zero-filled.
      static const char Digits[] = "0123456789abcdef";
      Out += " init ";
      size_t At = Out.size();
      Out.resize(At + 2 * G.Init.size());
      for (uint8_t Byte : G.Init) {
        Out[At++] = Digits[Byte >> 4];
        Out[At++] = Digits[Byte & 15];
      }
    }
    Out += "\n";
  }
  if (!Out.empty())
    Out += "\n";
  for (const auto &F : M.functions()) {
    Out += printFunction(*F);
    Out += "\n";
  }
  if (M.main())
    Out += "main @" + M.main()->name() + "\n";
  return Out;
}
