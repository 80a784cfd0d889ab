//===- ir/Instr.h - The vcode-like low-level IR ----------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The low-level IR both code generators target (Section 2.6). It is a
/// RISC-like three-address register language in the spirit of vcode
/// (Engler '96), with three register classes:
///
///   F - unboxed double registers
///   I - unboxed 64-bit integer registers (indices, counters, booleans)
///   P - boxed Value handles (matrices, strings, anything dynamic)
///
/// Every static fact about an opcode - what it computes, its printed name,
/// operand kinds, pool layout, immediate kind and effect class - is one
/// row of ir/Opcodes.def; ir/Operands.h exposes the table.
///
/// Before execution, the linear-scan register allocator maps virtual
/// registers onto the platform's fixed physical register files and inserts
/// spill traffic (Section 2.6: "register allocation is done using the
/// linear-scan register allocator").
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_IR_INSTR_H
#define MAJIC_IR_INSTR_H

#include "runtime/Ops.h"
#include "types/Signature.h"

#include <cstdint>
#include <string>
#include <vector>

namespace majic {

/// The IR's opcodes, numbered in the order of the rows of ir/Opcodes.def.
enum class Opcode : uint8_t {
#define OPCODE(Op, ...) Op,
#include "ir/Opcodes.def"
};

/// The highest opcode (serialization bound).
constexpr Opcode kLastOpcode = static_cast<Opcode>(
    0
#define OPCODE(...) +1
#include "ir/Opcodes.def"
    - 1);

const char *opcodeName(Opcode Op);

/// Encoding of the EwFuse per-element bytecode program. Each program entry
/// is one int32 in the pool: the low 8 bits select the operation, the rest
/// carry its argument. The program is postfix over a small evaluation
/// stack of per-element doubles; fusable trees deeper than kMaxEwStack are
/// split at codegen, so the executor's stack is a fixed-size array.
///
/// Op-order identity: the program encodes the *exact* per-element dataflow
/// of the unfused expression tree (operands pushed left-to-right, each
/// binary/unary applied in source order, no reassociation), which is why a
/// fused evaluation is bit-identical to the interpreter's temporaries.
namespace ew {

enum class EwOp : int32_t {
  Push, ///< push operand[arg] (broadcast if scalar) onto the stack
  Bin,  ///< pop RHS, pop LHS, push LHS <arg as rt::BinOp> RHS
  Neg,  ///< negate the stack top (arg unused)
  Intr, ///< apply arity-1 scalar intrinsic [arg] to the stack top
};

/// Maximum evaluation-stack depth of a fused program.
constexpr int32_t kMaxEwStack = 8;

constexpr int32_t encode(EwOp Op, int32_t Arg = 0) {
  return static_cast<int32_t>(Op) | (Arg << 8);
}
constexpr EwOp opOf(int32_t Entry) {
  return static_cast<EwOp>(Entry & 0xff);
}
constexpr int32_t argOf(int32_t Entry) { return Entry >> 8; }

/// Binary operators a fused program may carry. MatMul/MatRDiv appear only
/// when codegen proved one side scalar (where MATLAB's * and / degenerate
/// to the elementwise op); the executor re-applies the interpreter's own
/// broadcast and class rules at run time, so the distinction stays
/// observable in error messages.
constexpr bool isFusableBinOp(rt::BinOp Op) {
  return Op == rt::BinOp::Add || Op == rt::BinOp::Sub ||
         Op == rt::BinOp::MatMul || Op == rt::BinOp::ElemMul ||
         Op == rt::BinOp::MatRDiv || Op == rt::BinOp::ElemRDiv ||
         Op == rt::BinOp::ElemPow;
}

} // namespace ew

/// CallB/CallU Imm flag: the call is a statement (MATLAB nargout = 0).
/// Destination registers receive the optional outputs or null.
constexpr int64_t kStatementCallFlag = int64_t(1) << 30;

/// CallSelf's Imm: the argument count (its arguments sit in fields B, C, D
/// in order) and which of them are I rather than F registers. The call
/// asks for one output, an integer scalar. A register machine boxes the
/// arguments and calls through the resolver like CallU; native code calls
/// its own typed body.
namespace selfcall {

constexpr unsigned kMaxArgs = 3;

constexpr int64_t encode(unsigned NumArgs, unsigned IntArgMask) {
  return int64_t(NumArgs) | (int64_t(IntArgMask) << 2);
}
constexpr unsigned numArgs(int64_t Imm) { return unsigned(Imm & 3); }
constexpr bool argIsInt(int64_t Imm, unsigned K) {
  return (Imm >> (2 + K)) & 1;
}

} // namespace selfcall

/// Condition codes for FCmp/ICmp (Imm.I).
enum class CondCode : int64_t { LT, LE, GT, GE, EQ, NE };

struct Instr {
  Opcode Op = Opcode::Nop;
  int32_t A = -1;
  int32_t B = -1;
  int32_t C = -1;
  int32_t D = -1;
  union {
    double F;
    int64_t I;
  } Imm = {0.0};

  static Instr make(Opcode Op, int32_t A = -1, int32_t B = -1, int32_t C = -1,
                    int32_t D = -1) {
    Instr In;
    In.Op = Op;
    In.A = A;
    In.B = B;
    In.C = C;
    In.D = D;
    return In;
  }
};

/// Register classes of the machine.
enum class RegClass : uint8_t { F, I, P };

/// Metadata for a counted loop emitted by the code generator, consumed by
/// the optimizer's unroller. Instruction indices are kept valid by the
/// passes that use them (the unroller runs before allocation).
struct LoopMeta {
  uint32_t HeaderIndex;  ///< Index of the loop-condition check (ICmp).
  uint32_t BodyBegin;    ///< First body instruction.
  uint32_t LatchIndex;   ///< The counter-increment IAdd.
  uint32_t ExitIndex;    ///< First instruction after the loop.
  int32_t CounterReg;    ///< I register holding the counter.
  int32_t TripReg;       ///< I register holding the trip count.
};

struct BuiltinDef;

/// One compiled function in the low-level IR. Before register allocation,
/// register operands denote virtual registers (NumVirt* of each class);
/// after allocation they denote physical registers and spill slots.
class IRFunction {
public:
  std::string Name;
  size_t NumParams = 0;
  size_t NumOuts = 0;
  /// The declared output names (NumOuts of them), for the interpreter's
  /// "output argument 'r' of 'f' not assigned".
  std::vector<std::string> OutNames;

  std::vector<Instr> Code;
  std::vector<int32_t> Pool;        ///< Operand lists for call-like ops.
  std::vector<std::string> Names;   ///< Builtin/user/variable names.
  std::vector<std::string> Strings; ///< String literals.
  /// Names resolved against the builtin table (null where a name is not a
  /// builtin), filled by resolveBuiltins() when the function is register
  /// allocated or read from the store, so a call pays no table search.
  std::vector<const BuiltinDef *> Builtins;

  unsigned NumF = 0, NumI = 0, NumP = 0; ///< Register counts (virt or phys).
  unsigned NumFSpill = 0, NumISpill = 0, NumPSpill = 0;
  bool Allocated = false;

  std::vector<LoopMeta> Loops;

  /// Interns \p N into Names, returning its id.
  int32_t internName(const std::string &N);
  int32_t internString(const std::string &S);

  /// Fills Builtins from Names.
  void resolveBuiltins();

  /// Renders the function as text for tests and debugging.
  std::string print() const;
};

} // namespace majic

#endif // MAJIC_IR_INSTR_H
