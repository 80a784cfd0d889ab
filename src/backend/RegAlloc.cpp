//===- backend/RegAlloc.cpp - Linear-scan register allocation ------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/RegAlloc.h"

#include "ir/Operands.h"

#include <algorithm>
#include <bit>
#include <limits>

using namespace majic;

namespace {

constexpr unsigned NumScratch = 3;

/// Spilled operands go through the scratch register of their field
/// position: fields A..D map to scratches 0,1,2,0. That is safe while no
/// opcode has F or I registers of one class in both A and D. (CallSelf,
/// whose immediate selects its argument fields' classes, reads all its
/// arguments before it writes A.)
constexpr bool fieldsAAndDShareNoScratch() {
  for (const OpcodeInfo &Info : kOpcodeInfo) {
    OperandKind A = Info.Fields[0], D = Info.Fields[3];
    if (A != OperandKind::None && D != OperandKind::None &&
        regClass(A) != RegClass::P && regClass(A) == regClass(D))
      return false;
  }
  return true;
}
static_assert(fieldsAAndDShareNoScratch(),
              "fields A and D need a fourth scratch register");

/// Fixed-width rows of bits, one row per block.
struct BitRows {
  size_t Words;
  std::vector<uint64_t> Bits;

  BitRows(size_t Rows, size_t NumBits)
      : Words((NumBits + 63) / 64), Bits(Rows * Words, 0) {}
  uint64_t *row(size_t R) { return Bits.data() + R * Words; }
  static bool test(const uint64_t *Row, int32_t B) {
    return Row[B / 64] >> (B % 64) & 1;
  }
  static void set(uint64_t *Row, int32_t B) {
    Row[B / 64] |= uint64_t(1) << (B % 64);
  }
  /// Calls \p Visit on the index of each bit set in \p Word, word \p W
  /// of a row.
  template <typename Fn>
  static void forEach(uint64_t Word, size_t W, Fn Visit) {
    for (; Word != 0; Word &= Word - 1)
      Visit(static_cast<int32_t>(W * 64 + std::countr_zero(Word)));
  }
};

/// One F or I register operand: where it is, which register, and whether
/// the instruction writes it.
struct RegRef {
  int32_t Pos;
  int32_t Reg;
  bool IsDef;
};

/// The intervals of one register class from its operands, listed in code
/// order with each instruction's uses before its defs.
std::vector<LiveInterval> classIntervals(const BlockGraph &G,
                                         const std::vector<RegRef> &Refs,
                                         size_t NumRegs) {
  // The hull of each register's def and use positions, and the
  // upward-exposed uses and the defs of each block.
  std::vector<int32_t> First(NumRegs, -1), Last(NumRegs, -1);
  const size_t NumBlocks = G.numBlocks();
  BitRows Use(NumBlocks, NumRegs), Def(NumBlocks, NumRegs);
  BitRows LiveIn(NumBlocks, NumRegs), LiveOut(NumBlocks, NumRegs);
  size_t Block = 0;
  for (const RegRef &Ref : Refs) {
    while (Ref.Pos >= G.Begin[Block + 1])
      ++Block;
    if (First[Ref.Reg] < 0)
      First[Ref.Reg] = Ref.Pos;
    Last[Ref.Reg] = Ref.Pos;
    if (Ref.IsDef)
      BitRows::set(Def.row(Block), Ref.Reg);
    else if (!BitRows::test(Def.row(Block), Ref.Reg))
      BitRows::set(Use.row(Block), Ref.Reg);
  }

  // Live-in and live-out to a fixpoint, visiting blocks in reverse.
  const size_t Words = Use.Words;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t B = NumBlocks; B-- != 0;) {
      uint64_t *Out = LiveOut.row(B), *In = LiveIn.row(B);
      for (int32_t S : G.Succs[B])
        if (S >= 0)
          for (size_t W = 0; W != Words; ++W)
            Out[W] |= LiveIn.row(S)[W];
      for (size_t W = 0; W != Words; ++W) {
        uint64_t Next = Use.row(B)[W] | (Out[W] & ~Def.row(B)[W]);
        Changed |= Next != In[W];
        In[W] = Next;
      }
    }
  }

  // Stretch each hull over the blocks it is live into and out of.
  for (size_t B = 0; B != NumBlocks; ++B)
    for (size_t W = 0; W != Words; ++W) {
      BitRows::forEach(LiveIn.row(B)[W], W, [&](int32_t R) {
        First[R] = std::min(First[R], G.Begin[B]);
      });
      BitRows::forEach(LiveOut.row(B)[W], W, [&](int32_t R) {
        Last[R] = std::max(Last[R], G.Begin[B + 1] - 1);
      });
    }

  std::vector<LiveInterval> Out;
  for (size_t R = 0; R != NumRegs; ++R)
    if (First[R] >= 0)
      Out.push_back({static_cast<int32_t>(R), First[R], Last[R]});
  std::sort(Out.begin(), Out.end(),
            [](const LiveInterval &A, const LiveInterval &B) {
              return A.Start < B.Start ||
                     (A.Start == B.Start && A.VReg < B.VReg);
            });
  return Out;
}

} // namespace

BlockGraph majic::buildBlockGraph(const IRFunction &F) {
  const size_t N = F.Code.size();
  const std::vector<bool> Starts = blockStarts(F);
  std::vector<int32_t> BlockAt(N + 1, -1);
  BlockGraph G;
  for (size_t Pos = 0; Pos != N; ++Pos)
    if (Starts[Pos]) {
      BlockAt[Pos] = static_cast<int32_t>(G.Begin.size());
      G.Begin.push_back(static_cast<int32_t>(Pos));
    }
  G.Begin.push_back(static_cast<int32_t>(N));
  G.Succs.resize(G.Begin.size() - 1);
  for (size_t B = 0; B != G.Succs.size(); ++B) {
    const Instr &Last = F.Code[G.Begin[B + 1] - 1];
    const int32_t Next = BlockAt[G.Begin[B + 1]];
    if (Last.Op == Opcode::Br)
      G.Succs[B] = {BlockAt[Last.A], -1};
    else if (isBranch(Last.Op))
      G.Succs[B] = {BlockAt[Last.A], Next};
    else if (Last.Op == Opcode::Ret)
      G.Succs[B] = {-1, -1};
    else
      G.Succs[B] = {Next, -1};
  }
  return G;
}

LiveIntervals majic::liveIntervals(const IRFunction &F) {
  // One walk over the code collects the operands of both classes.
  std::vector<RegRef> Refs[2];
  size_t NumRegs[2] = {0, 0};
  for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
    const Instr &In = F.Code[Pos];
    const InstrOperands Ops = instrOperands(In);
    const int32_t Fields[4] = {In.A, In.B, In.C, In.D};
    for (bool Defs : {false, true})
      for (unsigned K = 0; K != 4; ++K) {
        OperandKind OK = Ops.Fields[K];
        if (OK == OperandKind::None || regClass(OK) == RegClass::P ||
            isDef(OK) != Defs || Fields[K] < 0)
          continue;
        const unsigned C = regClass(OK) == RegClass::I;
        Refs[C].push_back({static_cast<int32_t>(Pos), Fields[K], Defs});
        NumRegs[C] = std::max(NumRegs[C], static_cast<size_t>(Fields[K]) + 1);
      }
  }
  const BlockGraph G = buildBlockGraph(F);
  return {classIntervals(G, Refs[0], NumRegs[0]),
          classIntervals(G, Refs[1], NumRegs[1])};
}

namespace {

/// Classic linear scan: assign physical registers [NumScratch, NumPhys),
/// spilling the active interval with the furthest end when full.
void linearScan(std::vector<LiveInterval> &Intervals, unsigned NumPhys,
                bool SpillAll, unsigned &NumSlots) {
  NumSlots = 0;
  if (SpillAll || NumPhys <= NumScratch) {
    for (LiveInterval &It : Intervals)
      It.Slot = static_cast<int32_t>(NumSlots++);
    return;
  }
  unsigned Usable = NumPhys - NumScratch;
  std::vector<LiveInterval *> Active; // sorted by End ascending
  auto ByEnd = [](const LiveInterval *A, const LiveInterval *B) {
    return A->End < B->End;
  };
  std::vector<int32_t> FreeRegs;
  for (unsigned R = 0; R != Usable; ++R)
    FreeRegs.push_back(static_cast<int32_t>(NumScratch + Usable - 1 - R));

  for (LiveInterval &Cur : Intervals) {
    // Expire old intervals.
    for (size_t K = 0; K != Active.size();) {
      if (Active[K]->End < Cur.Start) {
        FreeRegs.push_back(Active[K]->Assigned);
        Active.erase(Active.begin() + K);
      } else {
        ++K;
      }
    }
    if (!FreeRegs.empty()) {
      Cur.Assigned = FreeRegs.back();
      FreeRegs.pop_back();
      Active.insert(std::upper_bound(Active.begin(), Active.end(), &Cur,
                                     ByEnd),
                    &Cur);
      continue;
    }
    // Spill the interval with the furthest end (Poletto-Sarkar heuristic).
    LiveInterval *Victim = Active.empty() ? nullptr : Active.back();
    if (Victim && Victim->End > Cur.End) {
      Cur.Assigned = Victim->Assigned;
      Victim->Assigned = -1;
      Victim->Slot = static_cast<int32_t>(NumSlots++);
      Active.pop_back();
      Active.insert(std::upper_bound(Active.begin(), Active.end(), &Cur,
                                     ByEnd),
                    &Cur);
    } else {
      Cur.Slot = static_cast<int32_t>(NumSlots++);
    }
  }
}

struct Assignment {
  // Per-vreg: physical register or -1; slot or -1.
  std::vector<int32_t> Phys;
  std::vector<int32_t> Slot;

  void init(const std::vector<LiveInterval> &Intervals) {
    int32_t MaxReg = -1;
    for (const LiveInterval &It : Intervals)
      MaxReg = std::max(MaxReg, It.VReg);
    Phys.assign(MaxReg + 1, -1);
    Slot.assign(MaxReg + 1, -1);
    for (const LiveInterval &It : Intervals) {
      Phys[It.VReg] = It.Assigned;
      Slot[It.VReg] = It.Slot;
    }
  }
};

} // namespace

RegAllocStats majic::allocateRegisters(IRFunction &F,
                                       const PlatformModel &Platform,
                                       const RegAllocOptions &Opts) {
  assert(!F.Allocated && "function already allocated");
  RegAllocStats Stats;

  LiveIntervals Live = liveIntervals(F);
  std::vector<LiveInterval> &FInts = Live.F, &IInts = Live.I;
  unsigned FSlots = 0, ISlots = 0;
  linearScan(FInts, Platform.NumFRegs, Opts.SpillEverything, FSlots);
  linearScan(IInts, Platform.NumIRegs, Opts.SpillEverything, ISlots);
  for (const LiveInterval &It : FInts)
    Stats.NumFSpilled += It.Slot >= 0;
  for (const LiveInterval &It : IInts)
    Stats.NumISpilled += It.Slot >= 0;

  Assignment FA, IA;
  FA.init(FInts);
  IA.init(IInts);

  // Rewrite pass: map operands, inserting scratch reloads/stores around
  // each instruction for spilled registers.
  std::vector<Instr> NewCode;
  NewCode.reserve(F.Code.size() + 8);
  std::vector<int32_t> NewPos(F.Code.size() + 1, 0);

  for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
    NewPos[Pos] = static_cast<int32_t>(NewCode.size());
    Instr In = F.Code[Pos];
    const InstrOperands Ops = instrOperands(In);
    int32_t *Fields[4] = {&In.A, &In.B, &In.C, &In.D};

    struct PendingStore {
      Opcode Op;
      int32_t Scratch;
      int32_t Slot;
    };
    std::vector<PendingStore> Stores;

    for (unsigned K = 0; K != 4; ++K) {
      OperandKind OK = Ops.Fields[K];
      if (OK == OperandKind::None || regClass(OK) == RegClass::P ||
          *Fields[K] < 0)
        continue;
      bool IsF = regClass(OK) == RegClass::F;
      Assignment &Asn = IsF ? FA : IA;
      int32_t V = *Fields[K];
      if (Asn.Phys[V] >= 0) {
        *Fields[K] = Asn.Phys[V];
        continue;
      }
      // Spilled: operate through the scratch register reserved for this
      // field position (see fieldsAAndDShareNoScratch).
      int32_t Scratch = static_cast<int32_t>(K % NumScratch);
      int32_t SlotId = Asn.Slot[V];
      assert(SlotId >= 0 && "register neither assigned nor spilled");
      if (!isDef(OK)) {
        Instr Ld = Instr::make(IsF ? Opcode::FSpLd : Opcode::ISpLd, Scratch);
        Ld.Imm.I = SlotId;
        NewCode.push_back(Ld);
        ++Stats.NumSpillInstrs;
      } else {
        Stores.push_back({IsF ? Opcode::FSpSt : Opcode::ISpSt, Scratch,
                          SlotId});
      }
      *Fields[K] = Scratch;
    }

    NewCode.push_back(In);
    for (const PendingStore &St : Stores) {
      Instr S = Instr::make(St.Op, St.Scratch);
      S.Imm.I = St.Slot;
      NewCode.push_back(S);
      ++Stats.NumSpillInstrs;
    }
  }
  NewPos[F.Code.size()] = static_cast<int32_t>(NewCode.size());

  // Patch branch targets to the new layout (targets include the reloads of
  // the instruction they point at).
  for (Instr &In : NewCode) {
    if (isBranch(In.Op))
      In.A = NewPos[In.A];
  }

  F.Code = std::move(NewCode);
  F.NumF = Platform.NumFRegs;
  F.NumI = Platform.NumIRegs;
  F.NumFSpill = FSlots;
  F.NumISpill = ISlots;
  F.NumPSpill = 0;
  F.Allocated = true;
  F.Loops.clear(); // instruction indices are stale now
  F.resolveBuiltins();
  return Stats;
}
