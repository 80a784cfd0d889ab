//===- ir/Operands.h - Instruction operand metadata ------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static facts about every opcode, read from the one-row-per-opcode
/// table in ir/Opcodes.def: printed name, operand kinds, pool layout,
/// immediate kind and effect class. Shared by the printer, the .mjo
/// validator, the optimizer (liveness, DCE, LICM, CSE, fusion merging),
/// the register allocator (intervals, spill rewriting) and the C emitter.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_IR_OPERANDS_H
#define MAJIC_IR_OPERANDS_H

#include "ir/Instr.h"

#include <iterator>

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

/// The register class a kind other than None names.
constexpr RegClass regClass(OperandKind K) {
  return K == OperandKind::DefF || K == OperandKind::UseF   ? RegClass::F
         : K == OperandKind::DefI || K == OperandKind::UseI ? RegClass::I
                                                            : RegClass::P;
}

/// True when the instruction writes the register (UseDefP reads it too).
constexpr bool isDef(OperandKind K) {
  return K == OperandKind::DefF || K == OperandKind::DefI ||
         K == OperandKind::DefP || K == OperandKind::UseDefP;
}

/// True when the instruction reads the register.
constexpr bool isUse(OperandKind K) {
  return K == OperandKind::UseF || K == OperandKind::UseI ||
         K == OperandKind::UseP || K == OperandKind::UseDefP;
}

/// Where an instruction keeps pooled P-register operand lists.
enum class PoolLayout : uint8_t {
  None,
  List, ///< Uses pool[B..B+C).
  Subs, ///< Subscripts pool[C..C+D): uses, or -1 for ':'.
  Call, ///< Defs pool[A..A+B), uses pool[C..C+D).
};

/// What the immediate means; the .mjo validator checks it accordingly.
enum class ImmKind : uint8_t {
  None,
  F64,      ///< A double constant.
  I64,      ///< An integer constant.
  String,   ///< Index into Strings.
  Cond,     ///< A CondCode.
  Intr1,    ///< A one-argument ScalarIntrinsic.
  Intr2,    ///< A two-argument ScalarIntrinsic.
  Name,     ///< Index into Names.
  Class,    ///< An MClass.
  BinOp,    ///< An rt::BinOp.
  UnOp,     ///< An rt::UnOp.
  Callee,   ///< Index into Names, plus kStatementCallFlag.
  Program,  ///< EwFuse: the length of the postfix program at pool[D..).
  Param,    ///< Parameter index.
  Out,      ///< Output index.
  Slot,     ///< Spill slot of field A's class.
  SelfCall, ///< selfcall:: argument count and classes.
};

/// What an instruction may do beyond writing its destinations, from the
/// most to the least constrained for the optimizer. Each optimizer set is
/// a range of classes (see the predicates below).
enum class EffectClass : uint8_t {
  Impure, ///< May throw, print, write memory or return.
  Branch, ///< Impure, and field A is a branch target.
  Inert,  ///< Does nothing (Nop).
  Pure,   ///< Deletable when its results are dead; may allocate or throw.
  Copy,   ///< Pure, and cannot throw, print or read array contents.
  Hoist,  ///< Copy, and reads only F/I registers: loop-invariant motion.
  Arith,  ///< Hoist, and a common-subexpression candidate.
};

struct OpcodeInfo {
  const char *Name;
  OperandKind Fields[4];
  PoolLayout Pool;
  ImmKind Imm;
  EffectClass Effect;
};

inline constexpr OpcodeInfo kOpcodeInfo[] = {
#define OPCODE(Op, Text, A, B, C, D, Pool, Imm, Effect)                        \
  {Text,                                                                       \
   {OperandKind::A, OperandKind::B, OperandKind::C, OperandKind::D},           \
   PoolLayout::Pool,                                                           \
   ImmKind::Imm,                                                               \
   EffectClass::Effect},
#include "ir/Opcodes.def"
};
static_assert(std::size(kOpcodeInfo) == static_cast<size_t>(kLastOpcode) + 1);

constexpr const OpcodeInfo &opcodeInfo(Opcode Op) {
  return kOpcodeInfo[static_cast<size_t>(Op)];
}

struct InstrOperands {
  OperandKind Fields[4] = {OperandKind::None, OperandKind::None,
                           OperandKind::None, OperandKind::None};
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
constexpr bool isPureInstr(Opcode Op) {
  return opcodeInfo(Op).Effect >= EffectClass::Pure;
}

/// True when the instruction is a candidate for loop-invariant code
/// motion: pure and independent of boxed array contents.
constexpr bool isHoistableInstr(Opcode Op) {
  return opcodeInfo(Op).Effect >= EffectClass::Hoist;
}

/// True for pure F/I-producing expressions over F/I operands, which local
/// value numbering may replace by an earlier equal result.
constexpr bool isCSECandidate(Opcode Op) {
  return opcodeInfo(Op).Effect == EffectClass::Arith;
}

/// True for instructions that may sit between a merged EwFuse producer
/// and its consumer: they cannot throw a user-visible MatlabError, print,
/// or touch array contents, so deferring the producer past them is
/// invisible. (Guarded FIntr1/2 can throw DeoptError, but a deopt replays
/// the whole call in the interpreter, which reproduces the original order.)
constexpr bool isEwMergeGapSafe(Opcode Op) {
  EffectClass E = opcodeInfo(Op).Effect;
  return E == EffectClass::Inert || E >= EffectClass::Copy;
}

/// True when field A is a branch target (an instruction index).
constexpr bool isBranch(Opcode Op) {
  return opcodeInfo(Op).Effect == EffectClass::Branch;
}

} // namespace majic

#endif // MAJIC_IR_OPERANDS_H
