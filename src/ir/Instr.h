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

enum class Opcode : uint8_t {
  Nop,

  // Constants and moves.
  FConst, // F[A] = Imm.F
  IConst, // I[A] = Imm.I
  SConst, // P[A] = string pool [Imm.I]
  MovF,   // F[A] = F[B]
  MovI,   // I[A] = I[B]
  MovP,   // P[A] = P[B]
  IToF,   // F[A] = double(I[B])
  FToI,   // I[A] = trunc(F[B])
  FToIdx, // I[A] = checked 1-based subscript F[B] minus 1 (throws if invalid)

  // Double arithmetic.
  FAdd, // F[A] = F[B] + F[C]
  FSub,
  FMul,
  FDiv,
  FNeg,  // F[A] = -F[B]
  FPow,  // F[A] = pow(F[B], F[C])
  FCmp,  // I[A] = F[B] <cc Imm.I> F[C]
  FIntr1, // F[A] = intr(Imm.I)(F[B])
  FIntr2, // F[A] = intr(Imm.I)(F[B], F[C])

  // Integer arithmetic / logic.
  IAdd, // I[A] = I[B] + I[C]
  ISub,
  IMul,
  INeg,
  ICmp, // I[A] = I[B] <cc Imm.I> I[C]
  IAnd, // I[A] = (I[B] != 0) & (I[C] != 0)
  IOr,
  INot, // I[A] = I[B] == 0

  // Control flow. Branch targets (A) are instruction indices, patched by
  // the builder when labels are bound.
  Br,   // goto A
  Brz,  // if (I[B] == 0) goto A
  Brnz, // if (I[B] != 0) goto A
  Ret,

  // Boxing and unboxing.
  BoxF,      // P[A] = scalar(F[B])
  BoxI,      // P[A] = int scalar(I[B])
  BoxB,      // P[A] = logical scalar(I[B] != 0)
  BoxC,      // P[A] = complex scalar(F[B], F[C])
  UnboxF,    // F[A] = P[B].scalarValue()  (throws unless numeric scalar)
  UnboxI,    // I[A] = integral scalar of P[B] (throws otherwise)
  UnboxReIm, // F[A] = re(P[C]), F[B] = im(P[C]) (scalar)
  CheckDef,  // throw "undefined variable <names[Imm.I]>" if P[A] is null

  // Unboxed array element access. Indices are 0-based and linear (LoadEl /
  // StoreEl) or (row, col) pairs (LoadEl2 / StoreEl2). The *Chk variants
  /// carry the MATLAB subscript check; stores additionally take the
  // resize-on-write slow path when out of bounds.
  NewMat,      // P[A] = zeros(I[B], I[C]) with class Imm.I
  FillF,       // fill P[A] elements with Imm.F
  LoadEl,      // F[A] = P[B].re[I[C]]
  LoadElChk,   // same plus bounds check
  LoadEl2,     // F[A] = P[B].at(I[C], I[D])
  LoadEl2Chk,  // same plus bounds check
  StoreEl,     // P[A].re[I[B]] = F[C]   (CoW-unique first)
  StoreElChk,  // same, with bounds + grow path; Imm.I = stored class
  StoreEl2,    // P[A].at(I[B], I[C]) = F[D]
  StoreEl2Chk, // same, with bounds + grow path
  LenRows,     // I[A] = rows(P[B])
  LenCols,
  LenNumel,
  ColSlice, // P[A] = P[B](:, I[C])  (0-based column)

  // Boxed (generic) operations: the "implicit default rule" fallback.
  MakeRange,  // P[A] = colon(F[B], F[C], F[D])
  MakeRangeG, // P[A] = colon(P[B], P[C], P[D]) (boxed operands, first-element rule)
  RtBin,     // P[A] = binary(Imm.I as BinOp, P[B], P[C])
  RtUn,      // P[A] = unary(Imm.I as UnOp, P[B])
  IsTrue,    // I[A] = isTrue(P[B])
  HorzCat,   // P[A] = horzcat(pool[B..B+C))
  VertCat,   // P[A] = vertcat(pool[B..B+C))
  LoadIdxG,  // P[A] = P[B](indices); indices in pool[C..C+D), -1 = ':'
  StoreIdxG, // P[A](indices) = P[B]; indices in pool[C..C+D), -1 = ':'
  CallB,     // builtin names[Imm.I]: dsts pool[A..A+B), args pool[C..C+D)
  CallU,     // user function names[Imm.I]: same layout as CallB
  Display,   // print "names[Imm.I] = <P[A]>"

  // Fused library kernels (Section 2.6.1's dgemv code selection).
  Gemv, // P[A] = P[B] * P[C]  (real matrix x real vector via BLAS dgemv)
  Axpy, // P[A] = F[B] * P[C] + P[D]  (real vectors, fused)

  // Fused elementwise expression tree: one loop, one memory pass, zero
  // intermediate Values. P[A] = program applied elementwise over the
  // operands pool[B..B+C); the postfix program lives in pool[D..D+Imm.I)
  // (see namespace ew below). Operand shapes/classes are resolved at run
  // time exactly as the interpreter would resolve the unfused chain, so
  // results (values, classes, and error messages) stay bit-identical.
  EwFuse,

  // Calling convention: arguments and outputs live outside the register
  // files so allocation cannot disturb them.
  LoadParam, // P[A] = args[Imm.I]
  StoreOut,  // outs[Imm.I] = P[A]

  // Spill traffic inserted by the register allocator.
  FSpLd, // F[A] = fspill[Imm.I]
  FSpSt, // fspill[Imm.I] = F[A]
  ISpLd,
  ISpSt,
  PSpLd,
  PSpSt,

  // The typed calling convention of a function that calls itself directly
  // (appended, so the numbers of the opcodes above stay put). Each means
  // exactly what the boxed pair beside it means; native code passes these
  // parameters and the result unboxed.
  ArgF,     // F[A] = real scalar of args[Imm.I]      (LoadParam + UnboxF)
  ArgI,     // I[A] = integer scalar of args[Imm.I]   (LoadParam + UnboxI)
  OutI,     // outs[Imm.I] = int scalar(I[A])         (BoxI + StoreOut)
  CallSelf, // I[A] = this function (B, C, D): F/I registers, see selfcall
};

/// The highest opcode (serialization bound).
constexpr Opcode kLastOpcode = Opcode::CallSelf;

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
