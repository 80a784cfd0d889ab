//===- types/Type.cpp - The MaJIC type system --------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "types/Type.h"

#include "support/Error.h"

#include <algorithm>
#include <charconv>
#include <cmath>

using namespace majic;

const char *majic::intrinsicName(IntrinsicType T) {
  switch (T) {
  case IntrinsicType::Bottom:
    return "bot";
  case IntrinsicType::Bool:
    return "bool";
  case IntrinsicType::Int:
    return "int";
  case IntrinsicType::Real:
    return "real";
  case IntrinsicType::Complex:
    return "cplx";
  case IntrinsicType::String:
    return "strg";
  case IntrinsicType::Top:
    return "top";
  }
  majic_unreachable("invalid intrinsic type");
}

bool majic::intrinsicLE(IntrinsicType A, IntrinsicType B) {
  if (A == IntrinsicType::Bottom || B == IntrinsicType::Top)
    return true;
  if (B == IntrinsicType::Bottom || A == IntrinsicType::Top)
    return A == B;
  // Strings are only comparable with themselves along the string chain.
  if (A == IntrinsicType::String || B == IntrinsicType::String)
    return A == B;
  return static_cast<int>(A) <= static_cast<int>(B);
}

IntrinsicType majic::intrinsicJoin(IntrinsicType A, IntrinsicType B) {
  if (intrinsicLE(A, B))
    return B;
  if (intrinsicLE(B, A))
    return A;
  // Incomparable: one numeric, one string.
  return IntrinsicType::Top;
}

IntrinsicType majic::intrinsicOfClass(MClass C) {
  switch (C) {
  case MClass::Bool:
    return IntrinsicType::Bool;
  case MClass::Int:
    return IntrinsicType::Int;
  case MClass::Real:
    return IntrinsicType::Real;
  case MClass::Complex:
    return IntrinsicType::Complex;
  case MClass::String:
    return IntrinsicType::String;
  }
  majic_unreachable("invalid class");
}

//===----------------------------------------------------------------------===//
// Interval arithmetic
//===----------------------------------------------------------------------===//

Range Range::add(const Range &O) const {
  if (isBottom() || O.isBottom())
    return bottom();
  return {Lo + O.Lo, Hi + O.Hi};
}

Range Range::sub(const Range &O) const {
  if (isBottom() || O.isBottom())
    return bottom();
  return {Lo - O.Hi, Hi - O.Lo};
}

Range Range::mul(const Range &O) const {
  if (isBottom() || O.isBottom())
    return bottom();
  double P[4] = {Lo * O.Lo, Lo * O.Hi, Hi * O.Lo, Hi * O.Hi};
  double NewLo = P[0], NewHi = P[0];
  for (double X : P) {
    // 0 * inf produces NaN; treat it conservatively as unbounded.
    if (X != X)
      return top();
    NewLo = std::min(NewLo, X);
    NewHi = std::max(NewHi, X);
  }
  return {NewLo, NewHi};
}

Range Range::div(const Range &O) const {
  if (isBottom() || O.isBottom())
    return bottom();
  // Division through zero can produce +-inf.
  if (O.Lo <= 0 && O.Hi >= 0)
    return top();
  double P[4] = {Lo / O.Lo, Lo / O.Hi, Hi / O.Lo, Hi / O.Hi};
  double NewLo = P[0], NewHi = P[0];
  for (double X : P) {
    if (X != X)
      return top();
    NewLo = std::min(NewLo, X);
    NewHi = std::max(NewHi, X);
  }
  return {NewLo, NewHi};
}

Range Range::neg() const {
  if (isBottom())
    return bottom();
  return {-Hi, -Lo};
}

Range Range::powConst(double Exp) const {
  if (isBottom())
    return bottom();
  bool IntExp = Exp == std::floor(Exp);
  if (!IntExp) {
    // Non-integral exponent: defined (real) only for non-negative bases.
    if (Lo >= 0)
      return {std::pow(Lo, Exp), std::pow(Hi, Exp)};
    return top();
  }
  bool Even = std::fmod(Exp, 2.0) == 0.0;
  if (Exp < 0)
    return top(); // keep it simple; negative powers rarely drive checks
  if (Even) {
    double A = std::pow(std::abs(Lo), Exp), B = std::pow(std::abs(Hi), Exp);
    double MaxV = std::max(A, B);
    double MinV = (Lo <= 0 && Hi >= 0) ? 0.0 : std::min(A, B);
    return {MinV, MaxV};
  }
  return {std::pow(Lo, Exp), std::pow(Hi, Exp)};
}

Range Range::floorRange() const {
  if (isBottom())
    return bottom();
  return {std::floor(Lo), std::floor(Hi)};
}

Range Range::ceilRange() const {
  if (isBottom())
    return bottom();
  return {std::ceil(Lo), std::ceil(Hi)};
}

Range Range::absRange() const {
  if (isBottom())
    return bottom();
  double A = std::abs(Lo), B = std::abs(Hi);
  double MaxV = std::max(A, B);
  double MinV = (Lo <= 0 && Hi >= 0) ? 0.0 : std::min(A, B);
  return {MinV, MaxV};
}

//===----------------------------------------------------------------------===//
// Type
//===----------------------------------------------------------------------===//

Type Type::ofValue(const Value &V) {
  IntrinsicType IT = intrinsicOfClass(V.mclass());
  ShapeBound S = ShapeBound::exact(V.rows(), V.cols());
  Range R = Range::top();
  // Ranges exist only for real numbers; a numeric scalar's range is exact,
  // making JIT inference a constant propagator (Section 2.4).
  if (V.isScalar() && V.isNumeric() && !V.isComplex())
    R = Range::constant(V.re(0));
  return Type(IT, S, S, R);
}

bool Type::le(const Type &O) const {
  if (isBottom())
    return true;
  if (!intrinsicLE(Intrinsic, O.Intrinsic))
    return false;
  // Shape: the value's shape must lie within [O.Min, O.Max]; ours lies
  // within [Min, Max], so require O.Min <= Min and Max <= O.Max.
  if (!O.MinShape.le(MinShape) || !MaxShape.le(O.MaxShape))
    return false;
  return R.le(O.R);
}

Type Type::join(const Type &O) const {
  if (isBottom())
    return O;
  if (O.isBottom())
    return *this;
  return Type(intrinsicJoin(Intrinsic, O.Intrinsic),
              MinShape.joinLower(O.MinShape), MaxShape.joinUpper(O.MaxShape),
              R.join(O.R));
}

static void appendDim(std::string &Out, uint64_t D) {
  if (D == ShapeBound::kUnknownDim) {
    Out += '*';
    return;
  }
  char Buf[20]; // 2^64 - 2 has 20 digits
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), D).ptr);
}

/// Appends "%g" of \p X: to_chars in general format at precision 6 is
/// defined as printf's %g, down to "-0", "inf" and "-nan".
static void appendG(std::string &Out, double X) {
  char Buf[32];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), X,
                                std::chars_format::general, 6)
                      .ptr);
}

std::string Type::str() const {
  if (isBottom())
    return "bot";
  // Rendered by hand: every persisted profile signature is rendered at
  // engine construction.
  std::string Out = intrinsicName(Intrinsic);
  Out += " [";
  appendDim(Out, MinShape.Rows);
  Out += 'x';
  appendDim(Out, MinShape.Cols);
  Out += ',';
  appendDim(Out, MaxShape.Rows);
  Out += 'x';
  appendDim(Out, MaxShape.Cols);
  Out += ']';
  if (R.isBottom()) {
    Out += " <>";
  } else if (!R.isTop()) {
    Out += " <";
    appendG(Out, R.Lo);
    Out += ',';
    appendG(Out, R.Hi);
    Out += '>';
  }
  return Out;
}

/// False only when "%g" certainly renders \p A and \p B differently. %g
/// keeps six significant digits, so two finite values that render alike
/// differ by at most about 1e-5 of the larger magnitude.
static bool mayRenderSameG(double A, double B) {
  if (A == B || std::isnan(A) || std::isnan(B))
    return true;
  if (!std::isfinite(A) || !std::isfinite(B))
    return false;
  return std::fabs(A - B) <= 2e-5 * std::max(std::fabs(A), std::fabs(B));
}

bool Type::mayRenderSame(const Type &O) const {
  if (isBottom() || O.isBottom())
    return isBottom() == O.isBottom();
  if (Intrinsic != O.Intrinsic || !(MinShape == O.MinShape) ||
      !(MaxShape == O.MaxShape))
    return false;
  if (R.isBottom() || O.R.isBottom())
    return R.isBottom() == O.R.isBottom();
  if (R.isTop() || O.R.isTop())
    return R.isTop() == O.R.isTop();
  return mayRenderSameG(R.Lo, O.R.Lo) && mayRenderSameG(R.Hi, O.R.Hi);
}
