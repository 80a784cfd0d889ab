//===- backend/RegAlloc.cpp - Linear-scan register allocation ------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/RegAlloc.h"

#include "ir/Operands.h"

#include <algorithm>
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

struct Interval {
  int32_t VReg;
  int32_t Start;
  int32_t End;
  int32_t Assigned = -1; // physical register, or -1 when spilled
  int32_t Slot = -1;
};

/// Builds conservative live intervals for one register class.
std::vector<Interval> buildIntervals(const IRFunction &F, RegClass Want) {
  std::vector<int32_t> First, Last;
  auto Note = [&](int32_t R, int32_t Pos) {
    if (R < 0)
      return;
    if (static_cast<size_t>(R) >= First.size()) {
      First.resize(R + 1, -1);
      Last.resize(R + 1, -1);
    }
    if (First[R] < 0)
      First[R] = Pos;
    Last[R] = Pos;
  };

  for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
    const Instr &In = F.Code[Pos];
    const InstrOperands Ops = instrOperands(In);
    const int32_t Fields[4] = {In.A, In.B, In.C, In.D};
    for (unsigned K = 0; K != 4; ++K)
      if (Ops.Fields[K] != OperandKind::None &&
          regClass(Ops.Fields[K]) == Want)
        Note(Fields[K], static_cast<int32_t>(Pos));
  }

  // Extend intervals across backward branches: any interval overlapping a
  // loop region is live for the whole region.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
      const Instr &In = F.Code[Pos];
      if (!isBranch(In.Op))
        continue;
      int32_t Target = In.A;
      auto BranchPos = static_cast<int32_t>(Pos);
      if (Target > BranchPos)
        continue; // forward branch
      for (size_t R = 0; R != First.size(); ++R) {
        if (First[R] < 0)
          continue;
        bool Overlaps = First[R] <= BranchPos && Last[R] >= Target;
        if (!Overlaps)
          continue;
        if (First[R] > Target) {
          First[R] = Target;
          Changed = true;
        }
        if (Last[R] < BranchPos) {
          Last[R] = BranchPos;
          Changed = true;
        }
      }
    }
  }

  std::vector<Interval> Out;
  for (size_t R = 0; R != First.size(); ++R)
    if (First[R] >= 0)
      Out.push_back({static_cast<int32_t>(R), First[R], Last[R], -1, -1});
  std::sort(Out.begin(), Out.end(), [](const Interval &A, const Interval &B) {
    return A.Start < B.Start || (A.Start == B.Start && A.VReg < B.VReg);
  });
  return Out;
}

/// Classic linear scan: assign physical registers [NumScratch, NumPhys),
/// spilling the active interval with the furthest end when full.
void linearScan(std::vector<Interval> &Intervals, unsigned NumPhys,
                bool SpillAll, unsigned &NumSlots) {
  NumSlots = 0;
  if (SpillAll || NumPhys <= NumScratch) {
    for (Interval &It : Intervals)
      It.Slot = static_cast<int32_t>(NumSlots++);
    return;
  }
  unsigned Usable = NumPhys - NumScratch;
  std::vector<Interval *> Active; // sorted by End ascending
  std::vector<int32_t> FreeRegs;
  for (unsigned R = 0; R != Usable; ++R)
    FreeRegs.push_back(static_cast<int32_t>(NumScratch + Usable - 1 - R));

  for (Interval &Cur : Intervals) {
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
                                     [](const Interval *A, const Interval *B) {
                                       return A->End < B->End;
                                     }),
                    &Cur);
      continue;
    }
    // Spill the interval with the furthest end (Poletto-Sarkar heuristic).
    Interval *Victim = Active.empty() ? nullptr : Active.back();
    if (Victim && Victim->End > Cur.End) {
      Cur.Assigned = Victim->Assigned;
      Victim->Assigned = -1;
      Victim->Slot = static_cast<int32_t>(NumSlots++);
      Active.pop_back();
      Active.insert(std::upper_bound(Active.begin(), Active.end(), &Cur,
                                     [](const Interval *A, const Interval *B) {
                                       return A->End < B->End;
                                     }),
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

  void init(const std::vector<Interval> &Intervals) {
    int32_t MaxReg = -1;
    for (const Interval &It : Intervals)
      MaxReg = std::max(MaxReg, It.VReg);
    Phys.assign(MaxReg + 1, -1);
    Slot.assign(MaxReg + 1, -1);
    for (const Interval &It : Intervals) {
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

  std::vector<Interval> FInts = buildIntervals(F, RegClass::F);
  std::vector<Interval> IInts = buildIntervals(F, RegClass::I);
  unsigned FSlots = 0, ISlots = 0;
  linearScan(FInts, Platform.NumFRegs, Opts.SpillEverything, FSlots);
  linearScan(IInts, Platform.NumIRegs, Opts.SpillEverything, ISlots);
  for (const Interval &It : FInts)
    Stats.NumFSpilled += It.Slot >= 0;
  for (const Interval &It : IInts)
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
