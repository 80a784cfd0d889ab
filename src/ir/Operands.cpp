//===- ir/Operands.cpp - Instruction operand metadata ---------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Operands.h"

#include <algorithm>

using namespace majic;

InstrOperands majic::instrOperands(const Instr &In) {
  InstrOperands Ops;
  const OpcodeInfo &Info = opcodeInfo(In.Op);
  std::copy(std::begin(Info.Fields), std::end(Info.Fields), Ops.Fields);
  if (In.Op == Opcode::CallSelf)
    for (unsigned K = 0; K != selfcall::numArgs(In.Imm.I); ++K)
      Ops.Fields[K + 1] = selfcall::argIsInt(In.Imm.I, K) ? OperandKind::UseI
                                                          : OperandKind::UseF;
  return Ops;
}

PoolRanges majic::poolRanges(const Instr &In) {
  switch (opcodeInfo(In.Op).Pool) {
  case PoolLayout::None:
    break;
  case PoolLayout::List:
    // EwFuse: only the operand table [B, B+C) names registers; the postfix
    // program at [D, D+Imm.I) is bytecode, not register uses.
    return {In.B, In.C, 0, 0};
  case PoolLayout::Subs:
    return {In.C, In.D, 0, 0};
  case PoolLayout::Call:
    return {In.C, In.D, In.A, In.B};
  }
  return {};
}
