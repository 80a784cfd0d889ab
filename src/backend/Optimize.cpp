//===- backend/Optimize.cpp - The "native compiler" pipeline --------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/Optimize.h"

#include "backend/CodeGen.h"
#include "ir/Operands.h"
#include "runtime/Builtins.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <vector>

using namespace majic;

namespace {

//===----------------------------------------------------------------------===//
// Local value numbering: constant folding, copy propagation, CSE
//===----------------------------------------------------------------------===//

/// Per-block value state. F and I registers live in disjoint namespaces, so
/// every map is keyed by (class, register).
struct VNState {
  static int64_t key(bool IsF, int32_t R) {
    return (IsF ? (int64_t(1) << 40) : 0) | static_cast<uint32_t>(R);
  }

  // (class, vreg) -> current version (bumped on redefinition).
  std::unordered_map<int64_t, uint32_t> Version;
  // (class, vreg) -> known constant, valid for the current version.
  std::unordered_map<int64_t, double> FConstOf;
  std::unordered_map<int64_t, int64_t> IConstOf;
  // (class, vreg) -> copy source (same class).
  struct Copy {
    int32_t Src;
    uint32_t SrcVersion;
  };
  std::unordered_map<int64_t, Copy> CopyOf;
  // Expression table: encoded expression -> (holder reg, holder version).
  struct Holder {
    int32_t Reg;
    uint32_t Version;
  };
  std::map<std::vector<int64_t>, Holder> Exprs;

  uint32_t version(bool IsF, int32_t R) {
    auto It = Version.find(key(IsF, R));
    return It == Version.end() ? 0 : It->second;
  }

  void define(bool IsF, int32_t R) {
    ++Version[key(IsF, R)];
    FConstOf.erase(key(IsF, R));
    IConstOf.erase(key(IsF, R));
    CopyOf.erase(key(IsF, R));
  }

  void reset() {
    Version.clear();
    FConstOf.clear();
    IConstOf.clear();
    CopyOf.clear();
    Exprs.clear();
  }
};

/// The constants of one instruction's F and I operands, by field (A = 0
/// to D = 3): the register file the folder evaluates an expression on.
struct ConstRegs {
  double F[4] = {};
  int64_t I[4] = {};
};

/// Evaluates the expression row of In.Op (ir/Opcodes.def) on \p R, which
/// holds its operands; the result lands in field A.
void evalExpr(const Instr &In, ConstRegs &R) {
  enum { A, B, C, D };
#define F(X) R.F[X]
#define I(X) R.I[X]
#define IMM immediate<Row>(In)
#define OPCODE_EXPR(Name, Expr)                                                \
  case Opcode::Name: {                                                         \
    [[maybe_unused]] constexpr Opcode Row = Opcode::Name;                      \
    Expr;                                                                      \
    return;                                                                    \
  }
  switch (In.Op) {
#include "ir/Opcodes.def"
  default:
    majic_unreachable("opcode without an expression row");
  }
#undef F
#undef I
#undef IMM
}

class ValueNumbering {
public:
  ValueNumbering(IRFunction &F, OptimizeStats &Stats) : F(F), Stats(Stats) {}

  void run() {
    std::vector<bool> Starts = blockStarts(F);
    for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
      if (Starts[Pos])
        S.reset();
      visit(F.Code[Pos]);
    }
  }

private:
  /// Canonicalizes a use operand: follow valid copies within the class.
  void canon(int32_t &R, bool IsF) {
    auto It = S.CopyOf.find(VNState::key(IsF, R));
    if (It != S.CopyOf.end() &&
        S.version(IsF, It->second.Src) == It->second.SrcVersion)
      R = It->second.Src;
  }

  bool fconst(int32_t R, double &V) {
    auto It = S.FConstOf.find(VNState::key(true, R));
    if (It == S.FConstOf.end())
      return false;
    V = It->second;
    return true;
  }
  bool iconst(int32_t R, int64_t &V) {
    auto It = S.IConstOf.find(VNState::key(false, R));
    if (It == S.IConstOf.end())
      return false;
    V = It->second;
    return true;
  }

  void visit(Instr &In);

  IRFunction &F;
  OptimizeStats &Stats;
  VNState S;
};

void ValueNumbering::visit(Instr &In) {
  const InstrOperands Ops = instrOperands(In);

  // Canonicalize F/I use operands through copies. The version-checked copy
  // map makes this safe without SSA. Keys are physical field slots.
  int32_t *Fields[4] = {&In.A, &In.B, &In.C, &In.D};
  for (unsigned K = 0; K != 4; ++K) {
    OperandKind OK = Ops.Fields[K];
    if (isUse(OK) && regClass(OK) != RegClass::P && *Fields[K] >= 0)
      canon(*Fields[K], regClass(OK) == RegClass::F);
  }

  // Constant folding.
  auto FoldF = [&](double V) {
    S.define(true, In.A);
    Instr NewIn = Instr::make(Opcode::FConst, In.A);
    NewIn.Imm.F = V;
    In = NewIn;
    S.FConstOf[VNState::key(true, In.A)] = V;
    ++Stats.NumFolded;
  };
  auto FoldI = [&](int64_t V) {
    S.define(false, In.A);
    Instr NewIn = Instr::make(Opcode::IConst, In.A);
    NewIn.Imm.I = V;
    In = NewIn;
    S.IConstOf[VNState::key(false, In.A)] = V;
    ++Stats.NumFolded;
  };

  switch (In.Op) {
  case Opcode::FConst:
    S.define(true, In.A);
    S.FConstOf[VNState::key(true, In.A)] = In.Imm.F;
    return;
  case Opcode::IConst:
    S.define(false, In.A);
    S.IConstOf[VNState::key(false, In.A)] = In.Imm.I;
    return;
  case Opcode::MovF: {
    double FV;
    bool IsConst = fconst(In.B, FV);
    uint32_t SrcVer = S.version(true, In.B);
    S.define(true, In.A);
    if (IsConst)
      S.FConstOf[VNState::key(true, In.A)] = FV;
    if (In.A != In.B)
      S.CopyOf[VNState::key(true, In.A)] = {In.B, SrcVer};
    return;
  }
  case Opcode::MovI: {
    int64_t IV;
    bool IsConst = iconst(In.B, IV);
    uint32_t SrcVer = S.version(false, In.B);
    S.define(false, In.A);
    if (IsConst)
      S.IConstOf[VNState::key(false, In.A)] = IV;
    if (In.A != In.B)
      S.CopyOf[VNState::key(false, In.A)] = {In.B, SrcVer};
    return;
  }
  case Opcode::FIntr1: {
    double FB;
    if (fconst(In.B, FB)) {
      FoldF(evalScalarIntrinsic1(static_cast<ScalarIntrinsic>(In.Imm.I), FB));
      return;
    }
    break;
  }
  case Opcode::IToF:
  case Opcode::FToI:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FNeg:
  case Opcode::FPow:
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::INeg: {
    ConstRegs R;
    bool AllConst = true;
    for (unsigned K = 1; K != 4; ++K) {
      OperandKind OK = Ops.Fields[K];
      if (isUse(OK))
        AllConst &= regClass(OK) == RegClass::F ? fconst(*Fields[K], R.F[K])
                                                : iconst(*Fields[K], R.I[K]);
    }
    if (AllConst) {
      evalExpr(In, R);
      if (regClass(Ops.Fields[0]) == RegClass::F)
        FoldF(R.F[0]);
      else
        FoldI(R.I[0]);
      return;
    }
    break;
  }
  default:
    break;
  }

  // CSE over pure F/I-producing expressions with F/I operands only.
  if (isCSECandidate(In.Op)) {
    std::vector<int64_t> Key;
    Key.push_back(static_cast<int64_t>(In.Op));
    Key.push_back(In.Imm.I);
    for (unsigned K = 1; K != 4; ++K) {
      OperandKind OK = Ops.Fields[K];
      if (isUse(OK)) {
        bool UseIsF = regClass(OK) == RegClass::F;
        Key.push_back(VNState::key(UseIsF, *Fields[K]));
        Key.push_back(S.version(UseIsF, *Fields[K]));
      }
    }
    bool DefIsF = regClass(Ops.Fields[0]) == RegClass::F;
    auto It = S.Exprs.find(Key);
    if (It != S.Exprs.end() &&
        S.version(DefIsF, It->second.Reg) == It->second.Version) {
      int32_t Src = It->second.Reg;
      int32_t Dst = In.A;
      if (Src == Dst)
        return; // recomputation into the same register: keep as-is
      In = Instr::make(DefIsF ? Opcode::MovF : Opcode::MovI, Dst, Src);
      S.define(DefIsF, Dst);
      S.CopyOf[VNState::key(DefIsF, Dst)] = {Src, S.version(DefIsF, Src)};
      ++Stats.NumCSE;
      return;
    }
    S.define(DefIsF, In.A);
    S.Exprs[Key] = {In.A, S.version(DefIsF, In.A)};
    return;
  }

  // Generic definition handling for anything else.
  for (unsigned K = 0; K != 4; ++K) {
    OperandKind OK = Ops.Fields[K];
    if (isDef(OK) && regClass(OK) != RegClass::P && *Fields[K] >= 0)
      S.define(regClass(OK) == RegClass::F, *Fields[K]);
  }
}

//===----------------------------------------------------------------------===//
// Rebuild helper: applies insertions and Nop removal, patching branches
// and loop metadata.
//===----------------------------------------------------------------------===//

void rebuild(IRFunction &F,
             const std::multimap<uint32_t, Instr> &InsertBefore,
             bool DropNops) {
  std::vector<Instr> NewCode;
  NewCode.reserve(F.Code.size() + InsertBefore.size());
  std::vector<int32_t> NewPos(F.Code.size() + 1, 0);

  for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
    auto [Lo, Hi] = InsertBefore.equal_range(static_cast<uint32_t>(Pos));
    for (auto It = Lo; It != Hi; ++It)
      NewCode.push_back(It->second);
    // Branch targets map to the original instruction, *after* insertions:
    // code hoisted to a loop header runs on fall-through entry only, not on
    // every back edge (headers are only ever targeted by their back edges).
    NewPos[Pos] = static_cast<int32_t>(NewCode.size());
    if (!(DropNops && F.Code[Pos].Op == Opcode::Nop))
      NewCode.push_back(F.Code[Pos]);
  }
  NewPos[F.Code.size()] = static_cast<int32_t>(NewCode.size());

  for (Instr &In : NewCode)
    if (isBranch(In.Op))
      In.A = NewPos[In.A];
  for (LoopMeta &L : F.Loops) {
    L.HeaderIndex = NewPos[L.HeaderIndex];
    L.BodyBegin = NewPos[L.BodyBegin];
    L.LatchIndex = NewPos[L.LatchIndex];
    L.ExitIndex = NewPos[L.ExitIndex];
  }
  F.Code = std::move(NewCode);
}

//===----------------------------------------------------------------------===//
// LICM
//===----------------------------------------------------------------------===//

/// Hoists invariant instructions out of one loop; returns true when the
/// function was rebuilt (loop metadata refreshed).
bool hoistOneLoop(IRFunction &F, const LoopMeta &L, OptimizeStats &Stats) {
  std::multimap<uint32_t, Instr> Hoists;
  {
    if (L.BodyBegin >= L.ExitIndex || L.ExitIndex > F.Code.size())
      return false;
    // Registers defined anywhere inside the loop region (header..exit).
    std::vector<bool> FDef, IDef;
    auto NoteDef = [](std::vector<bool> &V, int32_t R) {
      if (R < 0)
        return;
      if (static_cast<size_t>(R) >= V.size())
        V.resize(R + 1, false);
      V[R] = true;
    };
    auto IsDef = [](const std::vector<bool> &V, int32_t R) {
      return R >= 0 && static_cast<size_t>(R) < V.size() && V[R];
    };
    // Count definitions per reg so multiply-defined dsts are not hoisted.
    std::unordered_map<int64_t, unsigned> DefCount;
    for (uint32_t Pos = L.HeaderIndex; Pos < L.ExitIndex; ++Pos) {
      const Instr &In = F.Code[Pos];
      const InstrOperands Ops = instrOperands(In);
      const int32_t *Fields[4] = {&In.A, &In.B, &In.C, &In.D};
      for (unsigned K = 0; K != 4; ++K) {
        OperandKind OK = Ops.Fields[K];
        if (!isDef(OK) || regClass(OK) == RegClass::P)
          continue;
        bool IsF = regClass(OK) == RegClass::F;
        NoteDef(IsF ? FDef : IDef, *Fields[K]);
        ++DefCount[IsF ? ((1ll << 32) | *Fields[K]) : *Fields[K]];
      }
    }

    for (uint32_t Pos = L.BodyBegin; Pos < L.LatchIndex; ++Pos) {
      Instr &In = F.Code[Pos];
      if (!isHoistableInstr(In.Op))
        continue;
      const InstrOperands Ops = instrOperands(In);
      const int32_t *Fields[4] = {&In.A, &In.B, &In.C, &In.D};
      bool Invariant = true;
      for (unsigned K = 1; K != 4 && Invariant; ++K) {
        OperandKind OK = Ops.Fields[K];
        if (OK != OperandKind::None) // P operands and defs: not handled
          Invariant = isUse(OK) && regClass(OK) != RegClass::P &&
                      !IsDef(regClass(OK) == RegClass::F ? FDef : IDef,
                             *Fields[K]);
      }
      if (!Invariant)
        continue;
      // The destination must be defined exactly once in the loop (here).
      OperandKind DefOK = Ops.Fields[0];
      if (!isDef(DefOK) || regClass(DefOK) == RegClass::P)
        continue;
      bool DefIsF = regClass(DefOK) == RegClass::F;
      int64_t Key = DefIsF ? ((1ll << 32) | In.A) : In.A;
      if (DefCount[Key] != 1)
        continue;
      Hoists.emplace(L.HeaderIndex, In);
      In = Instr::make(Opcode::Nop);
      ++Stats.NumHoisted;
      // Record the hoisted def so later candidates depending on it remain
      // hoistable... they do not: conservatively leave FDef/IDef marked.
    }
  }

  if (Hoists.empty())
    return false;
  rebuild(F, Hoists, /*DropNops=*/true);
  return true;
}

void runLICM(IRFunction &F, OptimizeStats &Stats) {
  // One loop at a time, rebuilding in between: instructions hoisted into an
  // inner loop's header become visible definitions for the enclosing loop's
  // invariance analysis (hoisting everything in one batch would let an
  // outer loop lift users above their freshly hoisted inner-loop defs).
  for (size_t LoopIdx = 0; LoopIdx != F.Loops.size(); ++LoopIdx)
    hoistOneLoop(F, F.Loops[LoopIdx], Stats);
}

//===----------------------------------------------------------------------===//
// Unrolling
//===----------------------------------------------------------------------===//

/// Loops with longer bodies are not unrolled.
constexpr uint32_t kMaxUnrollBody = 48;

void runUnroll(IRFunction &F, unsigned Factor, OptimizeStats &Stats) {
  if (F.Loops.empty() || Factor < 2)
    return;

  // Collect all branch targets to verify bodies are single-entry.
  std::vector<uint32_t> Targets;
  for (const Instr &In : F.Code)
    if (isBranch(In.Op))
      Targets.push_back(static_cast<uint32_t>(In.A));

  // Unroll one loop at a time (positions shift after each rebuild).
  for (size_t LoopIdx = 0; LoopIdx != F.Loops.size(); ++LoopIdx) {
    const LoopMeta L = F.Loops[LoopIdx];
    uint32_t BodySize = L.LatchIndex - L.BodyBegin;
    if (BodySize == 0 || BodySize > kMaxUnrollBody)
      continue;
    // Straight-line body: no branches inside, no external jumps into it.
    bool Straight = true;
    for (uint32_t Pos = L.BodyBegin; Pos < L.LatchIndex && Straight; ++Pos)
      Straight = !isBranch(F.Code[Pos].Op) && F.Code[Pos].Op != Opcode::Ret;
    for (uint32_t T : Targets)
      if (T > L.BodyBegin && T <= L.LatchIndex)
        Straight = false;
    if (!Straight)
      continue;
    // Expected shape produced by the code generator:
    //   Header:  ICmp cond, k, TC (LT); Brz cond -> Exit
    //   Body:    ...
    //   Latch:   IAdd k, k, 1; Br Header
    const Instr &HeadCmp = F.Code[L.HeaderIndex];
    const Instr &HeadBr = F.Code[L.HeaderIndex + 1];
    const Instr &Latch = F.Code[L.LatchIndex];
    if (HeadCmp.Op != Opcode::ICmp || HeadBr.Op != Opcode::Brz ||
        Latch.Op != Opcode::IAdd || Latch.A != L.CounterReg)
      continue;

    // Build the unrolled replacement.
    std::vector<Instr> New;
    auto EmitBody = [&] {
      for (uint32_t Pos = L.BodyBegin; Pos < L.LatchIndex; ++Pos)
        New.push_back(F.Code[Pos]);
    };
    int32_t KTmp = static_cast<int32_t>(F.NumI++);
    int32_t Cond = static_cast<int32_t>(F.NumI++);

    // Prefix: everything before the header.
    New.insert(New.end(), F.Code.begin(), F.Code.begin() + L.HeaderIndex);

    // Unrolled header: while (k + Factor - 1 < TC).
    size_t UHeader = New.size();
    {
      // k + (Factor-1), through a constant register of its own: one def
      // each, so code selection makes it an immediate and fuses the
      // compare with its branch.
      int32_t Step = static_cast<int32_t>(F.NumI++);
      Instr Cst = Instr::make(Opcode::IConst, Step);
      Cst.Imm.I = static_cast<int64_t>(Factor - 1);
      New.push_back(Cst);
      New.push_back(Instr::make(Opcode::IAdd, KTmp, L.CounterReg, Step));
      Instr Cmp = Instr::make(Opcode::ICmp, Cond, KTmp, L.TripReg);
      Cmp.Imm.I = static_cast<int64_t>(CondCode::LT);
      New.push_back(Cmp);
      Instr Brz = Instr::make(Opcode::Brz, /*target patched below*/ 0, Cond);
      New.push_back(Brz);
    }
    size_t UBrz = New.size() - 1;
    for (unsigned U = 0; U != Factor; ++U) {
      EmitBody();
      New.push_back(F.Code[L.LatchIndex]); // IAdd k, k, 1
    }
    {
      Instr Br = Instr::make(Opcode::Br, static_cast<int32_t>(UHeader));
      New.push_back(Br);
    }
    // Remainder loop: the original header/body/latch.
    size_t RHeader = New.size();
    New[UBrz].A = static_cast<int32_t>(RHeader);
    {
      Instr Cmp = F.Code[L.HeaderIndex];
      New.push_back(Cmp);
      Instr Brz = F.Code[L.HeaderIndex + 1];
      Brz.A = 0; // patched to exit below
      New.push_back(Brz);
    }
    size_t RBrz = New.size() - 1;
    EmitBody();
    New.push_back(F.Code[L.LatchIndex]);
    New.push_back(Instr::make(Opcode::Br, static_cast<int32_t>(RHeader)));
    size_t NewExit = New.size();
    New[RBrz].A = static_cast<int32_t>(NewExit);

    // Suffix: everything from the old exit on. Only *original* prefix and
    // suffix branches are remapped (targets < HeaderIndex stay, targets
    // >= ExitIndex shift by Delta, a target at the old header maps to the
    // unrolled header); branches created by this transform are already
    // correct in the new layout.
    int64_t Delta = static_cast<int64_t>(NewExit) -
                    static_cast<int64_t>(L.ExitIndex);
    size_t SuffixBegin = New.size();
    New.insert(New.end(), F.Code.begin() + L.ExitIndex, F.Code.end());
    auto RemapOriginal = [&](Instr &In) {
      if (!isBranch(In.Op))
        return;
      if (In.A >= static_cast<int32_t>(L.ExitIndex))
        In.A = static_cast<int32_t>(In.A + Delta);
      else if (In.A == static_cast<int32_t>(L.HeaderIndex))
        In.A = static_cast<int32_t>(UHeader);
    };
    for (size_t Pos = 0; Pos != L.HeaderIndex; ++Pos)
      RemapOriginal(New[Pos]);
    for (size_t Pos = SuffixBegin; Pos != New.size(); ++Pos)
      RemapOriginal(New[Pos]);

    F.Code = std::move(New);
    // All loop metadata indices are stale after the rebuild; this pass
    // consumes them, so drop the rest.
    F.Loops.clear();
    ++Stats.NumLoopsUnrolled;
    break; // metadata gone; unroll at most one loop per pipeline round
  }
}

//===----------------------------------------------------------------------===//
// Cross-statement EwFuse merging
//===----------------------------------------------------------------------===//

/// Maximum stack depth a fused program reaches, or -1 when malformed.
int ewProgramDepth(const IRFunction &F, int32_t Off, int64_t Len) {
  int Sp = 0, Max = 0;
  for (int64_t K = 0; K != Len; ++K) {
    int32_t Entry = F.Pool[Off + K];
    switch (ew::opOf(Entry)) {
    case ew::EwOp::Push:
      if (++Sp > Max)
        Max = Sp;
      break;
    case ew::EwOp::Bin:
      if (Sp < 2)
        return -1;
      --Sp;
      break;
    case ew::EwOp::Neg:
    case ew::EwOp::Intr:
      if (Sp < 1)
        return -1;
      break;
    }
  }
  return Sp == 1 ? Max : -1;
}

/// One merge sweep; returns true when anything merged. A producer EwFuse
/// whose result (optionally forwarded through one single-use MovP) feeds
/// exactly one later EwFuse in the same straight-line region is inlined
/// into the consumer: its program is spliced at the consumer's Push site
/// and the intermediate full-size temporary disappears. Legality mirrors
/// the code generator's error-order rule: the splice site must not be
/// preceded by any Bin entry in the consumer's program (Push/Neg cannot
/// throw a user-visible error, Bin dimension mismatches can), so the
/// producer's error, if any, still fires before every consumer error.
bool mergeEwFuseOnce(IRFunction &F, OptimizeStats &Stats, FusionStats *FS) {
  std::vector<bool> Starts = blockStarts(F);

  // Whole-function P-register use counts (pool uses and call defs count,
  // exactly as DCE counts them, so StoreOut/call liveness is respected).
  std::unordered_map<int32_t, unsigned> PUses;
  for (const Instr &In : F.Code) {
    const InstrOperands Ops = instrOperands(In);
    const int32_t *Fields[4] = {&In.A, &In.B, &In.C, &In.D};
    for (unsigned K = 0; K != 4; ++K) {
      OperandKind OK = Ops.Fields[K];
      if (isUse(OK) && regClass(OK) == RegClass::P)
        ++PUses[*Fields[K]];
    }
    PoolRanges PR = poolRanges(In);
    for (int32_t K = 0; K != PR.UseCount; ++K)
      if (F.Pool[PR.UseOff + K] >= 0)
        ++PUses[F.Pool[PR.UseOff + K]];
    for (int32_t K = 0; K != PR.DefCount; ++K)
      ++PUses[F.Pool[PR.DefOff + K]];
  }

  bool Merged = false;
  for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
    const Instr &Prod = F.Code[Pos];
    if (Prod.Op != Opcode::EwFuse)
      continue;
    int32_t CurReg = Prod.A;
    if (PUses[CurReg] != 1)
      continue;
    // Producer operand registers must keep their values until the splice
    // site executes; a gap instruction redefining one aborts the scan.
    std::vector<int32_t> Guarded(F.Pool.begin() + Prod.B,
                                 F.Pool.begin() + Prod.B + Prod.C);
    if (std::find(Guarded.begin(), Guarded.end(), CurReg) != Guarded.end())
      continue;

    size_t MovPos = SIZE_MAX;
    size_t ConsPos = SIZE_MAX;
    for (size_t Q = Pos + 1; Q != F.Code.size(); ++Q) {
      if (Starts[Q])
        break; // entering another block: give up on this producer
      const Instr &In = F.Code[Q];
      if (In.Op == Opcode::EwFuse) {
        bool FeedsIt = false;
        for (int32_t K = 0; K != In.C && !FeedsIt; ++K)
          FeedsIt = F.Pool[In.B + K] == CurReg;
        if (FeedsIt)
          ConsPos = Q;
        break; // found the consumer, or an unrelated (unsafe) EwFuse
      }
      if (!isEwMergeGapSafe(In.Op))
        break;
      // Follow at most one single-use MovP forwarding the producer result
      // (the code generator stores fused statement results this way).
      if (In.Op == Opcode::MovP && In.B == CurReg && MovPos == SIZE_MAX &&
          PUses[In.A] == 1 && In.A != In.B) {
        MovPos = Q;
        CurReg = In.A;
        if (std::find(Guarded.begin(), Guarded.end(), CurReg) !=
            Guarded.end()) {
          ConsPos = SIZE_MAX;
          break;
        }
        continue;
      }
      // Any other P definition in the gap must not clobber the forwarded
      // result or a producer operand.
      const InstrOperands Ops = instrOperands(In);
      const int32_t *Fields[4] = {&In.A, &In.B, &In.C, &In.D};
      bool Clobbers = false;
      for (unsigned K = 0; K != 4 && !Clobbers; ++K) {
        OperandKind OK = Ops.Fields[K];
        if (isDef(OK) && regClass(OK) == RegClass::P)
          Clobbers = *Fields[K] == CurReg ||
                     std::find(Guarded.begin(), Guarded.end(), *Fields[K]) !=
                         Guarded.end();
      }
      if (Clobbers)
        break;
    }
    if (ConsPos == SIZE_MAX)
      continue;

    Instr &Cons = F.Code[ConsPos];
    // The splice site: exactly one Push of the producer result, with no
    // Bin entry before it (error-order rule above).
    int32_t ProdIdx = -1;
    for (int32_t K = 0; K != Cons.C; ++K)
      if (F.Pool[Cons.B + K] == CurReg)
        ProdIdx = K;
    int PushCount = 0;
    bool BinBefore = false, SeenPush = false;
    for (int64_t K = 0; K != Cons.Imm.I; ++K) {
      int32_t Entry = F.Pool[Cons.D + K];
      if (ew::opOf(Entry) == ew::EwOp::Push && ew::argOf(Entry) == ProdIdx) {
        ++PushCount;
        SeenPush = true;
      } else if (ew::opOf(Entry) == ew::EwOp::Bin && !SeenPush) {
        BinBefore = true;
      }
    }
    if (PushCount != 1 || BinBefore)
      continue;

    // Stack headroom: splicing runs the producer program where the Push
    // would have left one slot, so the merged maximum depth is
    // (depth at the splice site - 1) + producer max depth.
    int ProdDepth = ewProgramDepth(F, Prod.D, Prod.Imm.I);
    if (ProdDepth < 0)
      continue;
    bool TooDeep = false;
    {
      int Sp = 0;
      for (int64_t K = 0; K != Cons.Imm.I; ++K) {
        int32_t Entry = F.Pool[Cons.D + K];
        switch (ew::opOf(Entry)) {
        case ew::EwOp::Push:
          ++Sp;
          if (ew::argOf(Entry) == ProdIdx && Sp - 1 + ProdDepth > ew::kMaxEwStack)
            TooDeep = true;
          break;
        case ew::EwOp::Bin:
          --Sp;
          break;
        case ew::EwOp::Neg:
        case ew::EwOp::Intr:
          break;
        }
      }
    }
    if (TooDeep)
      continue;

    // Build the merged operand table and program.
    std::vector<int32_t> Table, Program;
    auto IndexOf = [&](int32_t Reg) -> int32_t {
      for (size_t K = 0; K != Table.size(); ++K)
        if (Table[K] == Reg)
          return static_cast<int32_t>(K);
      Table.push_back(Reg);
      return static_cast<int32_t>(Table.size() - 1);
    };
    for (int64_t K = 0; K != Cons.Imm.I; ++K) {
      int32_t Entry = F.Pool[Cons.D + K];
      if (ew::opOf(Entry) != ew::EwOp::Push) {
        Program.push_back(Entry);
        continue;
      }
      int32_t Arg = ew::argOf(Entry);
      if (Arg == ProdIdx) {
        for (int64_t J = 0; J != Prod.Imm.I; ++J) {
          int32_t PEntry = F.Pool[Prod.D + J];
          if (ew::opOf(PEntry) == ew::EwOp::Push)
            PEntry = ew::encode(ew::EwOp::Push,
                                IndexOf(F.Pool[Prod.B + ew::argOf(PEntry)]));
          Program.push_back(PEntry);
        }
      } else {
        Program.push_back(
            ew::encode(ew::EwOp::Push, IndexOf(F.Pool[Cons.B + Arg])));
      }
    }

    int32_t TableOff = static_cast<int32_t>(F.Pool.size());
    F.Pool.insert(F.Pool.end(), Table.begin(), Table.end());
    int32_t ProgOff = static_cast<int32_t>(F.Pool.size());
    F.Pool.insert(F.Pool.end(), Program.begin(), Program.end());
    Cons.B = TableOff;
    Cons.C = static_cast<int32_t>(Table.size());
    Cons.D = ProgOff;
    Cons.Imm.I = static_cast<int64_t>(Program.size());

    F.Code[Pos] = Instr::make(Opcode::Nop);
    if (MovPos != SIZE_MAX)
      F.Code[MovPos] = Instr::make(Opcode::Nop);
    ++Stats.NumEwFuseMerged;
    if (FS) {
      FS->Groups -= 1;
      FS->TempsElided += 1;
    }
    Merged = true;
    // Use counts and block starts are stale now; restart the sweep.
    return true;
  }
  return Merged;
}

void runEwFuseMerge(IRFunction &F, OptimizeStats &Stats, FusionStats *FS) {
  // Each successful merge restarts the scan with fresh use counts; the
  // producer count strictly decreases, so this terminates.
  while (mergeEwFuseOnce(F, Stats, FS))
    ;
}

//===----------------------------------------------------------------------===//
// DCE
//===----------------------------------------------------------------------===//

void runDCE(IRFunction &F, OptimizeStats &Stats) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Usage counts per class over the whole function.
    std::unordered_map<int64_t, unsigned> Uses;
    auto Key = [](RegClass C, int32_t R) -> int64_t {
      return (static_cast<int64_t>(C) << 32) | static_cast<uint32_t>(R);
    };
    for (const Instr &In : F.Code) {
      const InstrOperands Ops = instrOperands(In);
      const int32_t *Fields[4] = {&In.A, &In.B, &In.C, &In.D};
      for (unsigned K = 0; K != 4; ++K)
        if (isUse(Ops.Fields[K]))
          ++Uses[Key(regClass(Ops.Fields[K]), *Fields[K])];
      PoolRanges PR = poolRanges(In);
      for (int32_t K = 0; K != PR.UseCount; ++K)
        if (F.Pool[PR.UseOff + K] >= 0)
          ++Uses[Key(RegClass::P, F.Pool[PR.UseOff + K])];
      // Call destinations count as uses too (they must stay defined).
      for (int32_t K = 0; K != PR.DefCount; ++K)
        ++Uses[Key(RegClass::P, F.Pool[PR.DefOff + K])];
    }
    for (Instr &In : F.Code) {
      if (!isPureInstr(In.Op))
        continue;
      const InstrOperands Ops = instrOperands(In);
      const int32_t *Fields[4] = {&In.A, &In.B, &In.C, &In.D};
      bool AnyDef = false, AllDead = true;
      for (unsigned K = 0; K != 4; ++K) {
        if (!isDef(Ops.Fields[K]))
          continue;
        AnyDef = true;
        if (Uses[Key(regClass(Ops.Fields[K]), *Fields[K])] != 0)
          AllDead = false;
      }
      if (AnyDef && AllDead) {
        In = Instr::make(Opcode::Nop);
        ++Stats.NumDead;
        Changed = true;
      }
    }
  }
  rebuild(F, {}, /*DropNops=*/true);
}

//===----------------------------------------------------------------------===//
// Code selection: immediates and fused compare-branches
//===----------------------------------------------------------------------===//

/// The register-immediate form of a two-register opcode, or Nop.
Opcode immediateForm(Opcode Op) {
  switch (Op) {
  case Opcode::IAdd:
    return Opcode::IAddI;
  case Opcode::ISub:
    return Opcode::ISubI;
  case Opcode::FAdd:
    return Opcode::FAddI;
  case Opcode::FSub:
    return Opcode::FSubI;
  case Opcode::FMul:
    return Opcode::FMulI;
  case Opcode::FDiv:
    return Opcode::FDivI;
  case Opcode::FPow:
    return Opcode::FPowI;
  default:
    return Opcode::Nop;
  }
}

} // namespace

SelectStats majic::selectInstructions(IRFunction &F) {
  assert(!F.Allocated && "select before register allocation");
  SelectStats Stats;
  const size_t N = F.Code.size();
  // Per F and I register: its defs, its uses and where its last def is.
  // Flat vectors, one pass: this runs on every compile.
  std::vector<uint32_t> Defs[2], Uses[2], DefAt[2];
  for (unsigned C = 0; C != 2; ++C) {
    size_t NumRegs = C == 0 ? F.NumF : F.NumI;
    Defs[C].assign(NumRegs, 0);
    Uses[C].assign(NumRegs, 0);
    DefAt[C].assign(NumRegs, 0);
  }
  for (size_t Pos = 0; Pos != N; ++Pos) {
    const Instr &In = F.Code[Pos];
    const InstrOperands Ops = instrOperands(In);
    const int32_t Fields[4] = {In.A, In.B, In.C, In.D};
    for (unsigned K = 0; K != 4; ++K) {
      OperandKind OK = Ops.Fields[K];
      if (OK == OperandKind::None || regClass(OK) == RegClass::P ||
          Fields[K] < 0)
        continue;
      unsigned C = regClass(OK) == RegClass::F ? 0 : 1;
      if (isDef(OK)) {
        ++Defs[C][Fields[K]];
        DefAt[C][Fields[K]] = static_cast<uint32_t>(Pos);
      }
      if (isUse(OK))
        ++Uses[C][Fields[K]];
    }
  }

  // The constant register R of class C holds wherever it is read: its one
  // def is an FConst or IConst.
  auto ConstantIn = [&](unsigned C, int32_t R) -> const Instr * {
    if (R < 0 || Defs[C][R] != 1)
      return nullptr;
    const Instr &Def = F.Code[DefAt[C][R]];
    return Def.Op == (C == 0 ? Opcode::FConst : Opcode::IConst) ? &Def
                                                                : nullptr;
  };

  // A compare does not end a block, so the instruction after it starts
  // one only when a branch targets it.
  const std::vector<bool> Starts = blockStarts(F);
  for (size_t Pos = 0; Pos != N; ++Pos) {
    Instr &In = F.Code[Pos];
    switch (In.Op) {
    case Opcode::IToF:
      if (const Instr *K = ConstantIn(1, In.B)) {
        --Uses[1][In.B];
        Instr Const = Instr::make(Opcode::FConst, In.A);
        Const.Imm.F = static_cast<double>(K->Imm.I);
        In = Const;
        ++Stats.NumImmediates;
      }
      break;
    case Opcode::FCmp:
    case Opcode::ICmp: {
      // Fuse with the Brz right after, when it alone reads the flag and
      // nothing else jumps to it.
      if (Pos + 1 == N || Starts[Pos + 1])
        break;
      Instr &Br = F.Code[Pos + 1];
      if (Br.Op != Opcode::Brz || Br.B != In.A || Uses[1][In.A] != 1)
        break;
      Uses[1][In.A] = 0;
      Instr Fused = Instr::make(
          In.Op == Opcode::FCmp ? Opcode::FCmpBrz : Opcode::ICmpBrz, Br.A,
          In.B, In.C);
      Fused.Imm.I = In.Imm.I;
      In = Fused;
      Br = Instr::make(Opcode::Nop);
      ++Stats.NumFusedBranches;
      break;
    }
    default: {
      Opcode Imm = immediateForm(In.Op);
      if (Imm == Opcode::Nop)
        break;
      unsigned C =
          regClass(opcodeInfo(In.Op).Fields[0]) == RegClass::F ? 0 : 1;
      const Instr *K = ConstantIn(C, In.C);
      // Addition and multiplication commute, bit for bit, unless both
      // operands are NaNs, whose payloads need not.
      if (!K && (In.Op == Opcode::IAdd || In.Op == Opcode::FAdd ||
                 In.Op == Opcode::FMul)) {
        K = ConstantIn(C, In.B);
        if (K && C == 0 && std::isnan(K->Imm.F))
          K = nullptr;
        if (K)
          std::swap(In.B, In.C);
      }
      if (!K)
        break;
      --Uses[C][In.C];
      Instr Sel = Instr::make(Imm, In.A, In.B);
      Sel.Imm = K->Imm;
      In = Sel;
      ++Stats.NumImmediates;
      break;
    }
    }
  }

  // Constants nothing reads any more.
  for (Instr &In : F.Code)
    if ((In.Op == Opcode::FConst && Uses[0][In.A] == 0) ||
        (In.Op == Opcode::IConst && Uses[1][In.A] == 0)) {
      In = Instr::make(Opcode::Nop);
      ++Stats.NumConstantsDropped;
    }
  if (Stats.NumFusedBranches || Stats.NumConstantsDropped)
    rebuild(F, {}, /*DropNops=*/true);
  return Stats;
}

OptimizeStats majic::optimize(IRFunction &F, const OptimizeOptions &Opts) {
  assert(!F.Allocated && "optimize before register allocation");
  OptimizeStats Stats;
  ValueNumbering(F, Stats).run();
  runEwFuseMerge(F, Stats, Opts.Fusion);
  runLICM(F, Stats);
  runUnroll(F, Opts.UnrollFactor, Stats);
  runDCE(F, Stats);
  return Stats;
}
