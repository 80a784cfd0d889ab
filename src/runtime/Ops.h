//===- runtime/Ops.h - Polymorphic MATLAB operations ------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The polymorphic operation library: every MATLAB operator implemented over
/// dynamic Values, with full runtime type/shape checking. This is what the
/// interpreter calls on every AST node, and what generated code falls back to
/// under the "implicit default rule" (Section 2.6.1: un-inferred operands are
/// treated as complex matrices and handled by the runtime library — the
/// mlfPlus/mlfTimes calls of Figure 3).
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_RUNTIME_OPS_H
#define MAJIC_RUNTIME_OPS_H

#include "runtime/Value.h"

#include <span>
#include <vector>

namespace majic {
namespace rt {

/// Binary operator kinds, shared by the AST, the interpreter and the
/// generic-call opcode of the register VM.
enum class BinOp : uint8_t {
  Add,      // +
  Sub,      // -
  MatMul,   // *
  ElemMul,  // .*
  MatRDiv,  // /
  ElemRDiv, // ./
  MatLDiv,  // backslash
  ElemLDiv, // .\  (rarely used; included for completeness)
  MatPow,   // ^
  ElemPow,  // .^
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And, // element-wise &
  Or,  // element-wise |
};

enum class UnOp : uint8_t {
  Neg,        // unary -
  Plus,       // unary +
  Not,        // ~
  CTranspose, // ' (conjugate transpose)
  Transpose,  // .'
};

const char *binOpName(BinOp Op);
const char *unOpName(UnOp Op);

/// Evaluates a binary operator with full MATLAB semantics (broadcasting of
/// scalars, class promotion, complex arithmetic, string->double conversion).
/// Throws MatlabError on shape/class violations.
Value binary(BinOp Op, const Value &A, const Value &B);

Value unary(UnOp Op, const Value &A);

/// binary(MatMul, unary(Op, X), Y) - the same value, class and error text -
/// computed without the transposed copy of X when Op is ' or .' and both
/// operands are real non-scalar arrays of matching inner dimension
/// (blas::dgemmTA reads X transposed). Every other case materializes, and
/// so does a result holding a NaN (whose sign and payload only the
/// materialized path reproduces).
Value matMulTransA(UnOp Op, const Value &X, const Value &Y);

/// The colon operator a:b / a:s:b. Imaginary parts of the operands are
/// silently ignored (Section 2.5's first speculation hint relies on this).
Value colon(const Value &A, const Value &B);
Value colon(const Value &A, const Value &S, const Value &B);

/// Horizontal/vertical concatenation for the bracket operator [ ... ].
Value horzcat(std::span<const Value *const> Parts);
Value vertcat(std::span<const Value *const> Parts);

//===----------------------------------------------------------------------===//
// Indexing
//===----------------------------------------------------------------------===//

/// A resolved subscript for one dimension: either ":" or an explicit list of
/// 0-based indices. Logical (Bool class) index vectors select nonzero
/// positions, numeric ones must be positive integers.
class Indexer {
public:
  static Indexer colon() {
    Indexer I;
    I.IsColon = true;
    return I;
  }

  /// Resolves \p V into explicit indices. \p DimLen is the subscripted
  /// dimension's length, needed to validate logical subscripts.
  static Indexer fromValue(const Value &V, size_t DimLen);

  /// A single already-validated 0-based index (fast path).
  static Indexer single(size_t Idx0) {
    Indexer I;
    I.Zero.push_back(Idx0);
    return I;
  }

  bool isColon() const { return IsColon; }
  const std::vector<size_t> &indices() const { return Zero; }

  /// Number of selected elements given the dimension length.
  size_t count(size_t DimLen) const { return IsColon ? DimLen : Zero.size(); }

  /// Largest selected index + 1 (the dimension length the array must have).
  size_t requiredLen(size_t DimLen) const;

private:
  bool IsColon = false;
  std::vector<size_t> Zero;
};

/// A(I): linear indexing. The result has the shape MATLAB gives it (same
/// orientation as I for vector A, etc.).
Value index1(const Value &A, const Indexer &I);

/// A(R, C): two-dimensional indexing.
Value index2(const Value &A, const Indexer &R, const Indexer &C);

/// A(I) = RHS with resize-on-write. Growing a matrix (non-vector) through a
/// linear subscript is an error, matching MATLAB.
void indexAssign1(Value &A, const Indexer &I, const Value &RHS);

/// A(R, C) = RHS with resize-on-write in both dimensions.
void indexAssign2(Value &A, const Indexer &R, const Indexer &C,
                  const Value &RHS);

//===----------------------------------------------------------------------===//
// Helpers shared with builtins and display
//===----------------------------------------------------------------------===//

/// Converts a string value to its double char-code row vector; numeric
/// values pass through unchanged.
Value asNumeric(const Value &V);

/// Non-copying variant: returns \p V itself unless it is a string, in which
/// case the conversion is materialized into \p Scratch. The hot paths
/// (indexing, element-wise kernels) must use this form — copying a large
/// matrix per scalar element access would be quadratic.
const Value &asNumericView(const Value &V, Value &Scratch);

/// Element-wise real binary map with scalar broadcasting; complex operands
/// are an error. Used by two-argument math builtins (mod, rem, atan2).
Value elemwiseReal2(const Value &A, const Value &B, const char *Name,
                    double (*Fn)(double, double));

/// Checks a MATLAB 1-based subscript: positive and integral (within round-off
/// tolerance). Returns the 0-based index; throws MatlabError otherwise.
size_t checkSubscript(double X);

/// Raises the error for a checked scalar read A(I) or A(R, C) whose 1-based
/// subscripts failed the bounds check, worded exactly as the interpreter's
/// indexing words it: the compiled tiers call these so every executor's
/// error text agrees. Subscripts below 1 are reported first, then those
/// past their dimension; row before column within each.
[[noreturn]] void throwBadRead(int64_t I, size_t Numel);
[[noreturn]] void throwBadRead(int64_t R, int64_t C, size_t Rows, size_t Cols);

/// Renders a value the way the MATLAB command window displays "Name = ...".
std::string displayValue(const Value &V, const std::string &Name);

/// Result class of an arithmetic operation over \p A and \p B; \p Preserving
/// is true for operations that keep integers integral (+, -, *).
MClass arithResultClass(const Value &A, const Value &B, bool Preserving);

} // namespace rt
} // namespace majic

#endif // MAJIC_RUNTIME_OPS_H
