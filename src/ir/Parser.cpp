//===- ir/Parser.cpp - Textual IR parser -------------------------------------===//

#include "ir/Parser.h"

#include "ir/Module.h"
#include "support/Format.h"

#include <array>
#include <cctype>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

using namespace pp;
using namespace pp::ir;

namespace {

/// Line-oriented recursive-descent parser over the printer's format.
class Parser {
public:
  explicit Parser(const std::string &Text) {
    std::istringstream Stream(Text);
    std::string Line;
    while (std::getline(Stream, Line))
      Lines.push_back(Line);
  }

  ParseResult run() {
    ParseResult Result;
    M = std::make_unique<Module>();
    if (!scanDeclarations() || !parseBody()) {
      Result.Error = Error;
      return Result;
    }
    Result.M = std::move(M);
    return Result;
  }

private:
  // --- Diagnostics -----------------------------------------------------------

  bool fail(size_t LineNo, const std::string &Message) {
    if (Error.empty())
      Error = formatString("line %zu: %s", LineNo + 1, Message.c_str());
    return false;
  }

  // --- Cursor over one line ---------------------------------------------------

  struct Cursor {
    const std::string &Text;
    size_t Pos = 0;

    void skipSpace() {
      while (Pos < Text.size() && std::isspace((unsigned char)Text[Pos]))
        ++Pos;
    }
    bool atEnd() {
      skipSpace();
      return Pos >= Text.size();
    }
    bool eat(char C) {
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == C) {
        ++Pos;
        return true;
      }
      return false;
    }
    bool eatWord(const char *Word) {
      skipSpace();
      size_t Len = std::strlen(Word);
      if (Text.compare(Pos, Len, Word) == 0) {
        Pos += Len;
        return true;
      }
      return false;
    }
    /// Identifier: [A-Za-z0-9_.$-]+
    std::string ident() {
      skipSpace();
      size_t Start = Pos;
      while (Pos < Text.size() &&
             (std::isalnum((unsigned char)Text[Pos]) || Text[Pos] == '_' ||
              Text[Pos] == '.' || Text[Pos] == '$' || Text[Pos] == '-'))
        ++Pos;
      return Text.substr(Start, Pos - Start);
    }
    bool integer(int64_t &Out) {
      skipSpace();
      size_t Start = Pos;
      if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
        ++Pos;
      while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos]))
        ++Pos;
      if (Pos == Start || (Pos == Start + 1 && !std::isdigit(
                                                   (unsigned char)Text[Start])))
        return false;
      Out = std::strtoll(Text.c_str() + Start, nullptr, 10);
      return true;
    }
  };

  // --- Pass 1: declarations ---------------------------------------------------

  /// The hex initializer of global \p Name (\p Size bytes): two digits per
  /// byte, at most Size bytes.
  bool parseInit(Cursor &C, size_t LineNo, const std::string &Name,
                 int64_t Size, std::vector<uint8_t> &Init) {
    static constexpr std::array<int8_t, 256> HexValue = [] {
      std::array<int8_t, 256> Table{};
      Table.fill(-1);
      for (int Digit = 0; Digit != 10; ++Digit)
        Table['0' + Digit] = static_cast<int8_t>(Digit);
      for (int Digit = 0; Digit != 6; ++Digit)
        Table['a' + Digit] = Table['A' + Digit] =
            static_cast<int8_t>(10 + Digit);
      return Table;
    }();
    C.skipSpace();
    size_t End = C.Pos;
    while (End != C.Text.size() &&
           HexValue[static_cast<uint8_t>(C.Text[End])] >= 0)
      ++End;
    if (End != C.Text.size() && !std::isspace((unsigned char)C.Text[End]))
      return fail(LineNo, "bad hex digit in initializer of global '@" +
                              Name + "'");
    size_t Digits = End - C.Pos;
    if (Digits == 0 || Digits % 2 != 0)
      return fail(LineNo, "initializer of global '@" + Name +
                              "' needs two hex digits per byte");
    if (Digits / 2 > static_cast<uint64_t>(Size))
      return fail(LineNo,
                  formatString("initializer of global '@%s' has %zu bytes, "
                               "more than its size %lld",
                               Name.c_str(), Digits / 2, (long long)Size));
    Init.resize(Digits / 2);
    const char *Hex = C.Text.data() + C.Pos;
    for (size_t Index = 0; Index != Init.size(); ++Index) {
      int High = HexValue[static_cast<uint8_t>(Hex[2 * Index])];
      int Low = HexValue[static_cast<uint8_t>(Hex[2 * Index + 1])];
      Init[Index] = static_cast<uint8_t>(High << 4 | Low);
    }
    C.Pos = End;
    return true;
  }

  /// Creates globals, functions, and their blocks so pass 2 can resolve
  /// forward references.
  bool scanDeclarations() {
    Function *Current = nullptr;
    for (size_t LineNo = 0; LineNo != Lines.size(); ++LineNo) {
      Cursor C{Lines[LineNo]};
      if (C.atEnd())
        continue;
      if (C.eatWord("global")) {
        if (!C.eat('@'))
          return fail(LineNo, "expected '@name' after 'global'");
        std::string Name = C.ident();
        int64_t Size;
        if (Name.empty() || !C.integer(Size) || Size <= 0)
          return fail(LineNo, "expected 'global @name size'");
        std::vector<uint8_t> Init;
        if (C.eatWord("init") && !parseInit(C, LineNo, Name, Size, Init))
          return false;
        if (!C.atEnd())
          return fail(LineNo, "unexpected text after global '@" + Name + "'");
        M->addGlobal(Name, static_cast<uint64_t>(Size), std::move(Init));
        continue;
      }
      if (C.eatWord("func")) {
        if (!C.eat('@'))
          return fail(LineNo, "expected '@name' after 'func'");
        std::string Name = C.ident();
        int64_t NumParams = 0, NumRegs = 0;
        if (Name.empty() || !C.eat('(') || !C.integer(NumParams) ||
            !C.eat(')'))
          return fail(LineNo, "expected 'func @name(params)'");
        if (!C.eatWord("regs") || !C.eat('=') || !C.integer(NumRegs))
          return fail(LineNo, "expected 'regs=N'");
        if (!C.eat('{'))
          return fail(LineNo, "expected '{'");
        if (Functions.count(Name))
          return fail(LineNo, "duplicate function '" + Name + "'");
        Current = M->addFunction(Name, static_cast<unsigned>(NumParams));
        while (Current->numRegs() < static_cast<unsigned>(NumRegs))
          Current->freshReg();
        Functions[Name] = Current;
        continue;
      }
      if (C.eat('}')) {
        Current = nullptr;
        continue;
      }
      if (C.eatWord("main")) {
        if (!C.eat('@'))
          return fail(LineNo, "expected '@name' after 'main'");
        MainName = C.ident();
        continue;
      }
      // Inside a function: a "label:" line declares a block.
      if (Current) {
        Cursor Probe{Lines[LineNo]};
        std::string Label = Probe.ident();
        if (!Label.empty() && Probe.eat(':') && Probe.atEnd()) {
          if (Blocks.count({Current, Label}))
            return fail(LineNo, "duplicate block '" + Label + "'");
          Blocks[{Current, Label}] = Current->addBlock(Label);
        }
      }
    }
    if (!MainName.empty()) {
      auto It = Functions.find(MainName);
      if (It == Functions.end()) {
        Error = "main function '" + MainName + "' is not defined";
        return false;
      }
      M->setMain(It->second);
    }
    return true;
  }

  // --- Pass 2: instruction bodies ----------------------------------------------

  /// A block ends where the next label, '}' or the input does; one that
  /// ends without a terminator would abort BasicBlock::terminator() in
  /// every later pass, so it is a parse error at \p LineNo.
  bool closeBlock(BasicBlock *&Block, size_t LineNo) {
    BasicBlock *Closed = Block;
    Block = nullptr;
    if (!Closed || Closed->hasTerminator())
      return true;
    return fail(LineNo, "block '" + Closed->name() +
                            "' does not end in a terminator");
  }

  bool parseBody() {
    Function *Current = nullptr;
    BasicBlock *Block = nullptr;
    for (size_t LineNo = 0; LineNo != Lines.size(); ++LineNo) {
      Cursor C{Lines[LineNo]};
      if (C.atEnd())
        continue;
      if (C.eatWord("global")) {
        continue;
      }
      if (C.eatWord("func")) {
        if (!closeBlock(Block, LineNo))
          return false;
        C.eat('@');
        Current = Functions.at(C.ident());
        continue;
      }
      {
        Cursor Probe{Lines[LineNo]};
        if (Probe.eat('}')) {
          if (!closeBlock(Block, LineNo))
            return false;
          Current = nullptr;
          continue;
        }
      }
      if (!Current) {
        Cursor Probe{Lines[LineNo]};
        if (Probe.eatWord("main"))
          continue;
        return fail(LineNo, "instruction outside a function");
      }
      // Label line?
      {
        Cursor Probe{Lines[LineNo]};
        std::string Label = Probe.ident();
        if (!Label.empty() && Probe.eat(':') && Probe.atEnd()) {
          if (!closeBlock(Block, LineNo))
            return false;
          Block = Blocks.at({Current, Label});
          continue;
        }
      }
      if (!Block)
        return fail(LineNo, "instruction before any block label");
      Inst I;
      if (!parseInst(C, LineNo, Current, I))
        return false;
      // One instruction per line: text left over is a second instruction
      // (or junk) that the block would otherwise silently lose.
      if (!C.atEnd())
        return fail(LineNo, "unexpected '" + C.Text.substr(C.Pos) +
                                "' after the instruction");
      Block->insts().push_back(std::move(I));
    }
    return closeBlock(Block, Lines.size()) && Error.empty();
  }

  bool parseReg(Cursor &C, size_t LineNo, Reg &Out, bool AllowNone = false) {
    C.skipSpace();
    if (AllowNone && C.eat('_')) {
      Out = NoReg;
      return true;
    }
    if (!C.eat('r'))
      return fail(LineNo, "expected register");
    int64_t N;
    if (!C.integer(N) || N < 0)
      return fail(LineNo, "expected register number");
    Out = static_cast<Reg>(N);
    return true;
  }

  /// Register or immediate into (BIsImm, B, Imm).
  bool parseOperand(Cursor &C, size_t LineNo, Inst &I) {
    C.skipSpace();
    if (C.Pos < C.Text.size() && C.Text[C.Pos] == 'r' &&
        C.Pos + 1 < C.Text.size() &&
        std::isdigit((unsigned char)C.Text[C.Pos + 1]))
      return parseReg(C, LineNo, I.B);
    int64_t Value;
    if (!C.integer(Value))
      return fail(LineNo, "expected register or immediate");
    I.BIsImm = true;
    I.Imm = Value;
    return true;
  }

  bool parseBlockRef(Cursor &C, size_t LineNo, Function *F,
                     BasicBlock *&Out) {
    if (!C.eat('@'))
      return fail(LineNo, "expected '@block'");
    std::string Name = C.ident();
    auto It = Blocks.find({F, Name});
    if (It == Blocks.end())
      return fail(LineNo, "unknown block '" + Name + "'");
    Out = It->second;
    return true;
  }

  bool parseArgs(Cursor &C, size_t LineNo, Inst &I) {
    if (!C.eat('('))
      return fail(LineNo, "expected '('");
    if (C.eat(')'))
      return true;
    for (;;) {
      Reg Arg;
      if (!parseReg(C, LineNo, Arg))
        return false;
      I.Args.push_back(Arg);
      if (C.eat(')'))
        return true;
      if (!C.eat(','))
        return fail(LineNo, "expected ',' or ')'");
    }
  }

  /// "[rN + off]" or "[_ + off]"; fills A and Imm.
  bool parseMemRef(Cursor &C, size_t LineNo, Inst &I) {
    if (!C.eat('['))
      return fail(LineNo, "expected '['");
    if (!parseReg(C, LineNo, I.A, /*AllowNone=*/true))
      return false;
    if (!C.eat('+'))
      return fail(LineNo, "expected '+'");
    if (!C.integer(I.Imm))
      return fail(LineNo, "expected offset");
    if (!C.eat(']'))
      return fail(LineNo, "expected ']'");
    return true;
  }

  /// Parses the instruction starting at \p C, leaving \p C after it.
  bool parseInst(Cursor &C, size_t LineNo, Function *F, Inst &I) {
    std::string Op = C.ident();

    // loadN / storeN carry their width in the mnemonic.
    if (Op.rfind("load", 0) == 0 || Op.rfind("store", 0) == 0) {
      bool IsLoad = Op[0] == 'l';
      std::string WidthText = Op.substr(IsLoad ? 4 : 5);
      int Width = std::atoi(WidthText.c_str());
      if (Width != 1 && Width != 2 && Width != 4 && Width != 8)
        return fail(LineNo, "bad access width in '" + Op + "'");
      I.Size = static_cast<uint8_t>(Width);
      if (IsLoad) {
        I.Op = Opcode::Load;
        if (!parseReg(C, LineNo, I.Dst) || !C.eat(','))
          return fail(LineNo, "expected 'loadN rD, [..]'");
        return parseMemRef(C, LineNo, I);
      }
      I.Op = Opcode::Store;
      if (!parseMemRef(C, LineNo, I) || !C.eat(','))
        return fail(LineNo, "expected 'storeN [..], value'");
      return parseOperand(C, LineNo, I);
    }

    static const std::map<std::string, Opcode> ThreeAddress = {
        {"add", Opcode::Add},       {"sub", Opcode::Sub},
        {"mul", Opcode::Mul},       {"div", Opcode::Div},
        {"rem", Opcode::Rem},       {"and", Opcode::And},
        {"or", Opcode::Or},         {"xor", Opcode::Xor},
        {"shl", Opcode::Shl},       {"shr", Opcode::Shr},
        {"cmpeq", Opcode::CmpEq},   {"cmpne", Opcode::CmpNe},
        {"cmplt", Opcode::CmpLt},   {"cmple", Opcode::CmpLe},
        {"fadd", Opcode::FAdd},     {"fsub", Opcode::FSub},
        {"fmul", Opcode::FMul},     {"fdiv", Opcode::FDiv},
        {"fcmplt", Opcode::FCmpLt}, {"fcmple", Opcode::FCmpLe},
        {"fcmpeq", Opcode::FCmpEq},
    };
    if (auto It = ThreeAddress.find(Op); It != ThreeAddress.end()) {
      I.Op = It->second;
      if (!parseReg(C, LineNo, I.Dst) || !C.eat(','))
        return fail(LineNo, "expected destination");
      if (!parseReg(C, LineNo, I.A) || !C.eat(','))
        return fail(LineNo, "expected first source");
      return parseOperand(C, LineNo, I);
    }

    if (Op == "mov" || Op == "alloc") {
      I.Op = Op == "mov" ? Opcode::Mov : Opcode::Alloc;
      if (!parseReg(C, LineNo, I.Dst) || !C.eat(','))
        return fail(LineNo, "expected destination");
      return parseOperand(C, LineNo, I);
    }
    if (Op == "itof" || Op == "ftoi") {
      I.Op = Op == "itof" ? Opcode::IntToFp : Opcode::FpToInt;
      if (!parseReg(C, LineNo, I.Dst) || !C.eat(','))
        return fail(LineNo, "expected destination");
      return parseReg(C, LineNo, I.A);
    }
    if (Op == "br") {
      I.Op = Opcode::Br;
      return parseBlockRef(C, LineNo, F, I.T1);
    }
    if (Op == "condbr") {
      I.Op = Opcode::CondBr;
      if (!parseReg(C, LineNo, I.A) || !C.eat(','))
        return fail(LineNo, "expected condition");
      if (!parseBlockRef(C, LineNo, F, I.T1) || !C.eat(','))
        return fail(LineNo, "expected true target");
      return parseBlockRef(C, LineNo, F, I.T2);
    }
    if (Op == "switch") {
      I.Op = Opcode::Switch;
      if (!parseReg(C, LineNo, I.A) || !C.eat(','))
        return fail(LineNo, "expected index register");
      if (!parseBlockRef(C, LineNo, F, I.T1))
        return false;
      if (!C.eat('['))
        return fail(LineNo, "expected '['");
      if (!C.eat(']')) {
        for (;;) {
          BasicBlock *Target;
          if (!parseBlockRef(C, LineNo, F, Target))
            return false;
          I.SwitchTargets.push_back(Target);
          if (C.eat(']'))
            break;
          if (!C.eat(','))
            return fail(LineNo, "expected ',' or ']'");
        }
      }
      return true;
    }
    if (Op == "ret") {
      I.Op = Opcode::Ret;
      return parseOperand(C, LineNo, I);
    }
    if (Op == "call" || Op == "icall") {
      I.Op = Op == "call" ? Opcode::Call : Opcode::ICall;
      if (!parseReg(C, LineNo, I.Dst) || !C.eat(','))
        return fail(LineNo, "expected destination");
      if (I.Op == Opcode::Call) {
        if (!C.eat('@'))
          return fail(LineNo, "expected '@function'");
        std::string Name = C.ident();
        auto It = Functions.find(Name);
        if (It == Functions.end())
          return fail(LineNo, "unknown function '" + Name + "'");
        I.Callee = It->second;
      } else if (!parseReg(C, LineNo, I.A)) {
        return false;
      }
      return parseArgs(C, LineNo, I);
    }
    if (Op == "setjmp") {
      I.Op = Opcode::Setjmp;
      if (!parseReg(C, LineNo, I.Dst) || !C.eat(','))
        return fail(LineNo, "expected destination");
      return C.integer(I.Imm) ? true : fail(LineNo, "expected buffer key");
    }
    if (Op == "longjmp") {
      I.Op = Opcode::Longjmp;
      if (!C.integer(I.Imm) || !C.eat(','))
        return fail(LineNo, "expected buffer key");
      return parseOperand(C, LineNo, I);
    }
    if (Op == "rdpic") {
      I.Op = Opcode::RdPic;
      return parseReg(C, LineNo, I.Dst);
    }
    if (Op == "wrpic") {
      I.Op = Opcode::WrPic;
      return parseOperand(C, LineNo, I);
    }
    // Profiling pseudo-ops are printed by instrumented modules; accept
    // them so instrumented dumps round-trip too.
    if (Op == "cct.enter" || Op == "cct.exit") {
      I.Op = Op == "cct.enter" ? Opcode::CctEnter : Opcode::CctExit;
      return true;
    }
    if (Op == "cct.call" || Op == "cct.hwprobe") {
      I.Op = Op == "cct.call" ? Opcode::CctCall : Opcode::CctHwProbe;
      return C.integer(I.Imm) ? true : fail(LineNo, "expected immediate");
    }
    if (Op == "cct.pathcommit") {
      I.Op = Opcode::CctPathCommit;
      if (!parseReg(C, LineNo, I.A) || !C.eat(','))
        return fail(LineNo, "expected key register");
      return parseReg(C, LineNo, I.B, /*AllowNone=*/true);
    }
    if (Op == "path.hashcommit") {
      I.Op = Opcode::PathHashCommit;
      if (!C.integer(I.Imm) || !C.eat(','))
        return fail(LineNo, "expected table id");
      if (!parseReg(C, LineNo, I.A) || !C.eat(','))
        return fail(LineNo, "expected key register");
      return parseReg(C, LineNo, I.B, /*AllowNone=*/true);
    }
    return fail(LineNo, "unknown instruction '" + Op + "'");
  }

  std::vector<std::string> Lines;
  std::unique_ptr<Module> M;
  std::map<std::string, Function *> Functions;
  std::map<std::pair<Function *, std::string>, BasicBlock *> Blocks;
  std::string MainName;
  std::string Error;
};

} // namespace

ParseResult ir::parseModule(const std::string &Text) {
  return Parser(Text).run();
}
