//===- ir/Operands.cpp - Instruction operand metadata ---------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Operands.h"

#include <array>

using namespace majic;

namespace {

using OK = OperandKind;

InstrOperands make(OK A, OK B = OK::None, OK C = OK::None, OK D = OK::None,
                   bool PoolCall = false, bool PoolUses = false) {
  InstrOperands Ops;
  Ops.Fields[0] = A;
  Ops.Fields[1] = B;
  Ops.Fields[2] = C;
  Ops.Fields[3] = D;
  Ops.PoolCall = PoolCall;
  Ops.PoolUses = PoolUses;
  return Ops;
}

struct Table {
  std::array<InstrOperands, 256> Entries;

  Table() {
    auto Set = [this](Opcode Op, InstrOperands Ops) {
      Entries[static_cast<size_t>(Op)] = Ops;
    };
    Set(Opcode::Nop, make(OK::None));
    Set(Opcode::FConst, make(OK::DefF));
    Set(Opcode::IConst, make(OK::DefI));
    Set(Opcode::SConst, make(OK::DefP));
    Set(Opcode::MovF, make(OK::DefF, OK::UseF));
    Set(Opcode::MovI, make(OK::DefI, OK::UseI));
    Set(Opcode::MovP, make(OK::DefP, OK::UseP));
    Set(Opcode::IToF, make(OK::DefF, OK::UseI));
    Set(Opcode::FToI, make(OK::DefI, OK::UseF));
    Set(Opcode::FToIdx, make(OK::DefI, OK::UseF));
    for (Opcode Op : {Opcode::FAdd, Opcode::FSub, Opcode::FMul, Opcode::FDiv,
                      Opcode::FPow, Opcode::FIntr2})
      Set(Op, make(OK::DefF, OK::UseF, OK::UseF));
    Set(Opcode::FNeg, make(OK::DefF, OK::UseF));
    Set(Opcode::FIntr1, make(OK::DefF, OK::UseF));
    Set(Opcode::FCmp, make(OK::DefI, OK::UseF, OK::UseF));
    for (Opcode Op : {Opcode::IAdd, Opcode::ISub, Opcode::IMul, Opcode::ICmp,
                      Opcode::IAnd, Opcode::IOr})
      Set(Op, make(OK::DefI, OK::UseI, OK::UseI));
    Set(Opcode::INeg, make(OK::DefI, OK::UseI));
    Set(Opcode::INot, make(OK::DefI, OK::UseI));
    Set(Opcode::Br, make(OK::None));
    Set(Opcode::Brz, make(OK::None, OK::UseI));
    Set(Opcode::Brnz, make(OK::None, OK::UseI));
    Set(Opcode::Ret, make(OK::None));
    Set(Opcode::BoxF, make(OK::DefP, OK::UseF));
    Set(Opcode::BoxI, make(OK::DefP, OK::UseI));
    Set(Opcode::BoxB, make(OK::DefP, OK::UseI));
    Set(Opcode::BoxC, make(OK::DefP, OK::UseF, OK::UseF));
    Set(Opcode::UnboxF, make(OK::DefF, OK::UseP));
    Set(Opcode::UnboxI, make(OK::DefI, OK::UseP));
    Set(Opcode::UnboxReIm, make(OK::DefF, OK::DefF, OK::UseP));
    Set(Opcode::CheckDef, make(OK::UseP));
    Set(Opcode::NewMat, make(OK::DefP, OK::UseI, OK::UseI));
    Set(Opcode::FillF, make(OK::UseDefP));
    Set(Opcode::LoadEl, make(OK::DefF, OK::UseP, OK::UseI));
    Set(Opcode::LoadElChk, make(OK::DefF, OK::UseP, OK::UseI));
    Set(Opcode::LoadEl2, make(OK::DefF, OK::UseP, OK::UseI, OK::UseI));
    Set(Opcode::LoadEl2Chk, make(OK::DefF, OK::UseP, OK::UseI, OK::UseI));
    Set(Opcode::StoreEl, make(OK::UseDefP, OK::UseI, OK::UseF));
    Set(Opcode::StoreElChk, make(OK::UseDefP, OK::UseI, OK::UseF));
    Set(Opcode::StoreEl2, make(OK::UseDefP, OK::UseI, OK::UseI, OK::UseF));
    Set(Opcode::StoreEl2Chk, make(OK::UseDefP, OK::UseI, OK::UseI, OK::UseF));
    Set(Opcode::LenRows, make(OK::DefI, OK::UseP));
    Set(Opcode::LenCols, make(OK::DefI, OK::UseP));
    Set(Opcode::LenNumel, make(OK::DefI, OK::UseP));
    Set(Opcode::ColSlice, make(OK::DefP, OK::UseP, OK::UseI));
    Set(Opcode::MakeRange, make(OK::DefP, OK::UseF, OK::UseF, OK::UseF));
    Set(Opcode::MakeRangeG, make(OK::DefP, OK::UseP, OK::UseP, OK::UseP));
    Set(Opcode::RtBin, make(OK::DefP, OK::UseP, OK::UseP));
    Set(Opcode::RtUn, make(OK::DefP, OK::UseP));
    Set(Opcode::IsTrue, make(OK::DefI, OK::UseP));
    Set(Opcode::HorzCat, make(OK::DefP, OK::None, OK::None, OK::None,
                              /*PoolCall=*/false, /*PoolUses=*/true));
    Set(Opcode::VertCat, make(OK::DefP, OK::None, OK::None, OK::None, false,
                              true));
    Set(Opcode::LoadIdxG,
        make(OK::DefP, OK::UseP, OK::None, OK::None, false, true));
    Set(Opcode::StoreIdxG,
        make(OK::UseDefP, OK::UseP, OK::None, OK::None, false, true));
    Set(Opcode::CallB,
        make(OK::None, OK::None, OK::None, OK::None, /*PoolCall=*/true));
    Set(Opcode::CallU, make(OK::None, OK::None, OK::None, OK::None, true));
    Set(Opcode::Display, make(OK::UseP));
    Set(Opcode::Gemv, make(OK::DefP, OK::UseP, OK::UseP));
    Set(Opcode::Axpy, make(OK::DefP, OK::UseF, OK::UseP, OK::UseP));
    Set(Opcode::EwFuse, make(OK::DefP, OK::None, OK::None, OK::None,
                             /*PoolCall=*/false, /*PoolUses=*/true));
    Set(Opcode::LoadParam, make(OK::DefP));
    Set(Opcode::StoreOut, make(OK::UseP));
    Set(Opcode::FSpLd, make(OK::DefF));
    Set(Opcode::FSpSt, make(OK::UseF));
    Set(Opcode::ISpLd, make(OK::DefI));
    Set(Opcode::ISpSt, make(OK::UseI));
    Set(Opcode::PSpLd, make(OK::DefP));
    Set(Opcode::PSpSt, make(OK::UseP));
    Set(Opcode::ArgF, make(OK::DefF));
    Set(Opcode::ArgI, make(OK::DefI));
    Set(Opcode::OutI, make(OK::UseI));
  }
};

} // namespace

InstrOperands majic::instrOperands(const Instr &In) {
  static const Table T;
  if (In.Op != Opcode::CallSelf)
    return T.Entries[static_cast<size_t>(In.Op)];
  InstrOperands Ops;
  int64_t Imm = In.Imm.I;
  Ops.Fields[0] = OK::DefI;
  for (unsigned K = 0; K != selfcall::numArgs(Imm); ++K)
    Ops.Fields[K + 1] = selfcall::argIsInt(Imm, K) ? OK::UseI : OK::UseF;
  return Ops;
}

PoolRanges majic::poolRanges(const Instr &In) {
  PoolRanges R;
  switch (In.Op) {
  case Opcode::CallB:
  case Opcode::CallU:
    R.DefOff = In.A;
    R.DefCount = In.B;
    R.UseOff = In.C;
    R.UseCount = In.D;
    break;
  case Opcode::HorzCat:
  case Opcode::VertCat:
    R.UseOff = In.B;
    R.UseCount = In.C;
    break;
  case Opcode::EwFuse:
    // Only the operand table [B, B+C) names registers; the postfix program
    // at [D, D+Imm.I) is bytecode, not register uses.
    R.UseOff = In.B;
    R.UseCount = In.C;
    break;
  case Opcode::LoadIdxG:
  case Opcode::StoreIdxG:
    R.UseOff = In.C;
    R.UseCount = In.D;
    break;
  default:
    break;
  }
  return R;
}

bool majic::isPureInstr(Opcode Op) {
  switch (Op) {
  case Opcode::FConst:
  case Opcode::IConst:
  case Opcode::SConst:
  case Opcode::MovF:
  case Opcode::MovI:
  case Opcode::MovP:
  case Opcode::IToF:
  case Opcode::FToI:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FNeg:
  case Opcode::FPow:
  case Opcode::FCmp:
  case Opcode::FIntr1:
  case Opcode::FIntr2:
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::INeg:
  case Opcode::ICmp:
  case Opcode::IAnd:
  case Opcode::IOr:
  case Opcode::INot:
  case Opcode::BoxF:
  case Opcode::BoxI:
  case Opcode::BoxB:
  case Opcode::BoxC:
  case Opcode::NewMat:
  case Opcode::LoadEl:
  case Opcode::LoadEl2:
  case Opcode::LenRows:
  case Opcode::LenCols:
  case Opcode::LenNumel:
  case Opcode::LoadParam:
    return true;
  default:
    return false;
  }
}

bool majic::isHoistableInstr(Opcode Op) {
  switch (Op) {
  case Opcode::FConst:
  case Opcode::IConst:
  case Opcode::MovF:
  case Opcode::MovI:
  case Opcode::IToF:
  case Opcode::FToI:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FNeg:
  case Opcode::FPow:
  case Opcode::FCmp:
  case Opcode::FIntr1:
  case Opcode::FIntr2:
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::INeg:
  case Opcode::ICmp:
  case Opcode::IAnd:
  case Opcode::IOr:
  case Opcode::INot:
  case Opcode::BoxF:
  case Opcode::BoxI:
  case Opcode::BoxB:
    return true;
  default:
    return false;
  }
}
