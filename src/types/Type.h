//===- types/Type.h - The MaJIC type system --------------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The type system of Section 2.2: the Cartesian product
///   T = Li x Ls x Ls x Ll
/// of the intrinsic type lattice Li (bot < bool < int < real < cplx < top,
/// bot < strg < top), the shape lattice Ls (rows x cols ordered
/// component-wise) appearing twice because MaJIC tracks lower *and* upper
/// shape bounds, and the range lattice Ll (real intervals).
///
/// Ranges are defined only for real numbers; strings and complex values have
/// no range (represented as the range lattice top here).
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_TYPES_TYPE_H
#define MAJIC_TYPES_TYPE_H

#include "runtime/Value.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace majic {

//===----------------------------------------------------------------------===//
// Li: intrinsic types
//===----------------------------------------------------------------------===//

enum class IntrinsicType : uint8_t {
  Bottom,
  Bool,
  Int,
  Real,
  Complex,
  String,
  Top,
};

const char *intrinsicName(IntrinsicType T);

/// Partial order of Li: bot <= bool <= int <= real <= cplx <= top and
/// bot <= strg <= top (strings are incomparable with the numeric chain).
bool intrinsicLE(IntrinsicType A, IntrinsicType B);
IntrinsicType intrinsicJoin(IntrinsicType A, IntrinsicType B);

/// The intrinsic type of a runtime class tag.
IntrinsicType intrinsicOfClass(MClass C);

//===----------------------------------------------------------------------===//
// Ls: shapes
//===----------------------------------------------------------------------===//

/// One element of the shape lattice: a (rows, cols) pair where kUnknownDim
/// stands for the lattice's infinity. Ordered component-wise.
struct ShapeBound {
  static constexpr uint64_t kUnknownDim =
      std::numeric_limits<uint64_t>::max();

  uint64_t Rows = 0;
  uint64_t Cols = 0;

  static ShapeBound bottom() { return {0, 0}; }
  static ShapeBound top() { return {kUnknownDim, kUnknownDim}; }
  static ShapeBound scalar() { return {1, 1}; }
  static ShapeBound exact(uint64_t R, uint64_t C) { return {R, C}; }

  bool operator==(const ShapeBound &O) const = default;

  /// Component-wise <=: <a,b> sub <c,d> iff a <= c and b <= d.
  bool le(const ShapeBound &O) const { return Rows <= O.Rows && Cols <= O.Cols; }

  ShapeBound joinUpper(const ShapeBound &O) const {
    return {std::max(Rows, O.Rows), std::max(Cols, O.Cols)};
  }
  ShapeBound joinLower(const ShapeBound &O) const {
    return {std::min(Rows, O.Rows), std::min(Cols, O.Cols)};
  }

  bool isKnown() const {
    return Rows != kUnknownDim && Cols != kUnknownDim;
  }
  uint64_t numel() const {
    return isKnown() ? Rows * Cols : kUnknownDim;
  }
};

//===----------------------------------------------------------------------===//
// Ll: ranges
//===----------------------------------------------------------------------===//

/// A closed real interval [Lo, Hi]. Bottom is <nan, nan>, top <-inf, +inf>.
/// Range propagation is the generalization of constant propagation for real
/// scalars (Section 2.4): a value is a constant when Lo == Hi.
struct Range {
  double Lo;
  double Hi;

  static Range bottom() {
    double NaN = std::numeric_limits<double>::quiet_NaN();
    return {NaN, NaN};
  }
  static Range top() {
    double Inf = std::numeric_limits<double>::infinity();
    return {-Inf, Inf};
  }
  static Range constant(double V) { return {V, V}; }
  static Range interval(double Lo, double Hi) { return {Lo, Hi}; }
  static Range nonNegative() {
    return {0.0, std::numeric_limits<double>::infinity()};
  }

  bool isBottom() const { return Lo != Lo; } // NaN check
  bool isTop() const {
    return !isBottom() && Lo == -std::numeric_limits<double>::infinity() &&
           Hi == std::numeric_limits<double>::infinity();
  }
  bool isConstant() const { return !isBottom() && Lo == Hi; }

  bool operator==(const Range &O) const {
    if (isBottom() || O.isBottom())
      return isBottom() && O.isBottom();
    return Lo == O.Lo && Hi == O.Hi;
  }

  /// <a,b> sub <c,d> iff <a,b> is bottom or (c <= a and b <= d).
  bool le(const Range &O) const {
    if (isBottom())
      return true;
    if (O.isBottom())
      return false;
    return O.Lo <= Lo && Hi <= O.Hi;
  }

  Range join(const Range &O) const {
    if (isBottom())
      return O;
    if (O.isBottom())
      return *this;
    return {std::min(Lo, O.Lo), std::max(Hi, O.Hi)};
  }

  //===--------------------------------------------------------------------===
  // Interval arithmetic (used by the transfer functions)
  //===--------------------------------------------------------------------===

  Range add(const Range &O) const;
  Range sub(const Range &O) const;
  Range mul(const Range &O) const;
  Range div(const Range &O) const;
  Range neg() const;
  /// x^k for a constant integer exponent (even exponents yield >= 0).
  Range powConst(double Exp) const;
  /// Rounds the bounds outward to integers (after floor/ceil/round).
  Range floorRange() const;
  Range ceilRange() const;
  /// Range of abs().
  Range absRange() const;
};

//===----------------------------------------------------------------------===//
// T = Li x Ls x Ls x Ll
//===----------------------------------------------------------------------===//

class Type {
public:
  /// Bottom: the type of unreached / undefined expressions.
  Type()
      : Intrinsic(IntrinsicType::Bottom), MinShape(ShapeBound::bottom()),
        MaxShape(ShapeBound::bottom()), R(Range::bottom()) {}

  Type(IntrinsicType IT, ShapeBound Min, ShapeBound Max, Range R)
      : Intrinsic(IT), MinShape(Min), MaxShape(Max), R(R) {}

  static Type bottom() { return Type(); }
  static Type top() {
    return Type(IntrinsicType::Top, ShapeBound::bottom(), ShapeBound::top(),
                Range::top());
  }
  /// A scalar of intrinsic type \p IT with range \p R.
  static Type scalar(IntrinsicType IT, Range R = Range::top()) {
    return Type(IT, ShapeBound::scalar(), ShapeBound::scalar(), R);
  }
  static Type constant(double V) {
    bool Integral = V == static_cast<long long>(V) && std::abs(V) < 1e15;
    return scalar(Integral ? IntrinsicType::Int : IntrinsicType::Real,
                  Range::constant(V));
  }
  /// A matrix of unknown shape with intrinsic type \p IT.
  static Type matrix(IntrinsicType IT) {
    return Type(IT, ShapeBound::bottom(), ShapeBound::top(), Range::top());
  }
  static Type exactMatrix(IntrinsicType IT, uint64_t Rows, uint64_t Cols,
                          Range R = Range::top()) {
    return Type(IT, ShapeBound::exact(Rows, Cols),
                ShapeBound::exact(Rows, Cols), R);
  }

  /// The type of a concrete runtime value; the seed of JIT type inference
  /// ("the type signature of the code, derived directly from the input
  /// values of the runtime invocation", Section 2.4).
  static Type ofValue(const Value &V);

  IntrinsicType intrinsic() const { return Intrinsic; }
  ShapeBound minShape() const { return MinShape; }
  ShapeBound maxShape() const { return MaxShape; }
  Range range() const { return R; }

  void setIntrinsic(IntrinsicType IT) { Intrinsic = IT; }
  void setRange(Range NewR) { R = NewR; }
  void setShape(ShapeBound Min, ShapeBound Max) {
    MinShape = Min;
    MaxShape = Max;
  }

  bool isBottom() const { return Intrinsic == IntrinsicType::Bottom; }

  /// Provably a 1x1 value.
  bool isScalar() const {
    return MinShape == ShapeBound::scalar() && MaxShape == ShapeBound::scalar();
  }
  /// Exactly determined shape: lower and upper bounds agree (Section 2.4,
  /// "exact shape inference").
  std::optional<ShapeBound> exactShape() const {
    if (MinShape == MaxShape && MaxShape.isKnown())
      return MaxShape;
    return std::nullopt;
  }
  /// A known constant: real scalar with a degenerate range.
  std::optional<double> constantValue() const {
    if (isScalar() && R.isConstant() &&
        intrinsicLE(Intrinsic, IntrinsicType::Real))
      return R.Lo;
    return std::nullopt;
  }

  /// True when this type can only hold real (non-complex, non-string)
  /// numeric values.
  bool isRealNumeric() const {
    return intrinsicLE(Intrinsic, IntrinsicType::Real);
  }

  bool le(const Type &O) const;
  Type join(const Type &O) const;
  bool operator==(const Type &O) const {
    return Intrinsic == O.Intrinsic && MinShape == O.MinShape &&
           MaxShape == O.MaxShape && R == O.R;
  }

  /// "int [1x1,1x1] (3,3)" style rendering for tests and dumps.
  std::string str() const;

  /// False only when str() of this type and of \p O certainly differ;
  /// answered with a few comparisons and no rendering.
  bool mayRenderSame(const Type &O) const;

private:
  IntrinsicType Intrinsic;
  ShapeBound MinShape; ///< Lower bound: the value's shape is >= this.
  ShapeBound MaxShape; ///< Upper bound: the value's shape is <= this.
  Range R;
};

} // namespace majic

#endif // MAJIC_TYPES_TYPE_H
