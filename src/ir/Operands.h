//===- ir/Operands.h - Instruction operand metadata ------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Def/use metadata for every opcode, shared by the optimizer (liveness,
/// DCE, LICM) and the register allocator (intervals, spill rewriting).
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_IR_OPERANDS_H
#define MAJIC_IR_OPERANDS_H

#include "ir/Instr.h"

namespace majic {

enum class OperandKind : uint8_t {
  None,
  DefF,
  UseF,
  DefI,
  UseI,
  DefP,
  UseP,
  UseDefP, ///< In-place array mutation targets (StoreEl, FillF, ...).
};

struct InstrOperands {
  OperandKind Fields[4] = {OperandKind::None, OperandKind::None,
                           OperandKind::None, OperandKind::None};
  /// CallB/CallU: pool[A..A+B) are P defs and pool[C..C+D) are P uses.
  bool PoolCall = false;
  /// HorzCat/VertCat/LoadIdxG/StoreIdxG: pool entries >= 0 are P uses.
  bool PoolUses = false;
};

/// Operand semantics of \p In (fixed per opcode, except CallSelf, whose
/// field classes its immediate selects).
InstrOperands instrOperands(const Instr &In);

/// Pool-resident P-register operand ranges of an instruction.
struct PoolRanges {
  int32_t UseOff = 0, UseCount = 0; ///< P uses (entries < 0 are ':').
  int32_t DefOff = 0, DefCount = 0; ///< P defs (call results).
};

/// Returns where \p In keeps pooled operands (zero counts when none).
PoolRanges poolRanges(const Instr &In);

/// True when the instruction has no side effects beyond writing its
/// destination registers: safe to delete when all destinations are dead.
bool isPureInstr(Opcode Op);

/// True when the instruction is a candidate for loop-invariant code
/// motion: pure and independent of boxed array contents.
bool isHoistableInstr(Opcode Op);

} // namespace majic

#endif // MAJIC_IR_OPERANDS_H
