//===- runtime/Ops.cpp - Polymorphic MATLAB operations --------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Ops.h"

#include "runtime/Blas.h"
#include "runtime/LinAlg.h"
#include "support/Parallel.h"
#include "support/ResourceGuard.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <complex>

using namespace majic;
using namespace majic::rt;

const char *rt::binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::MatMul:
    return "*";
  case BinOp::ElemMul:
    return ".*";
  case BinOp::MatRDiv:
    return "/";
  case BinOp::ElemRDiv:
    return "./";
  case BinOp::MatLDiv:
    return "\\";
  case BinOp::ElemLDiv:
    return ".\\";
  case BinOp::MatPow:
    return "^";
  case BinOp::ElemPow:
    return ".^";
  case BinOp::Lt:
    return "<";
  case BinOp::Le:
    return "<=";
  case BinOp::Gt:
    return ">";
  case BinOp::Ge:
    return ">=";
  case BinOp::Eq:
    return "==";
  case BinOp::Ne:
    return "~=";
  case BinOp::And:
    return "&";
  case BinOp::Or:
    return "|";
  }
  majic_unreachable("invalid BinOp");
}

const char *rt::unOpName(UnOp Op) {
  switch (Op) {
  case UnOp::Neg:
    return "-";
  case UnOp::Plus:
    return "+";
  case UnOp::Not:
    return "~";
  case UnOp::CTranspose:
    return "'";
  case UnOp::Transpose:
    return ".'";
  }
  majic_unreachable("invalid UnOp");
}

const Value &rt::asNumericView(const Value &V, Value &Scratch) {
  if (!V.isString())
    return V;
  Scratch = asNumeric(V);
  return Scratch;
}

Value rt::asNumeric(const Value &V) {
  if (!V.isString())
    return V;
  const std::string &S = V.stringValue();
  Value Out = Value::zeros(S.empty() ? 0 : 1, S.size());
  for (size_t I = 0; I != S.size(); ++I)
    Out.reRef(I) = static_cast<double>(static_cast<unsigned char>(S[I]));
  return Out;
}

MClass rt::arithResultClass(const Value &A, const Value &B, bool Preserving) {
  if (A.isComplex() || B.isComplex())
    return MClass::Complex;
  auto IsIntLike = [](const Value &V) {
    return V.mclass() == MClass::Int || V.mclass() == MClass::Bool;
  };
  if (Preserving && IsIntLike(A) && IsIntLike(B))
    return MClass::Int;
  return MClass::Real;
}

//===----------------------------------------------------------------------===//
// Element-wise kernels
//===----------------------------------------------------------------------===//

namespace {

using Cplx = std::complex<double>;

/// Scalar power with MATLAB's complex escalation: negative base with a
/// non-integral exponent yields a complex result.
Cplx scalarPow(Cplx A, Cplx B, bool &IsComplex) {
  if (A.imag() == 0 && B.imag() == 0) {
    double Ar = A.real(), Br = B.real();
    if (Ar >= 0 || Br == std::floor(Br)) {
      IsComplex = false;
      return Cplx(std::pow(Ar, Br), 0.0);
    }
  }
  IsComplex = true;
  return std::pow(A, B);
}

struct Shape {
  size_t R, C;
};

/// Broadcast result shape for element-wise ops: equal shapes, or one operand
/// scalar. Throws on mismatch.
Shape broadcastShape(const Value &A, const Value &B, const char *OpName) {
  if (A.isScalar())
    return {B.rows(), B.cols()};
  if (B.isScalar())
    return {A.rows(), A.cols()};
  if (A.rows() == B.rows() && A.cols() == B.cols())
    return {A.rows(), A.cols()};
  throw MatlabError(format(
      "matrix dimensions must agree for operator '%s' (%zux%zu vs %zux%zu)",
      OpName, A.rows(), A.cols(), B.rows(), B.cols()));
}

inline Cplx elemAt(const Value &V, size_t I, bool Scalar) {
  size_t Idx = Scalar ? 0 : I;
  return Cplx(V.re(Idx), V.im(Idx));
}

/// Minimum elements before an element-wise loop goes parallel. These loops
/// are memory-bound, so below ~a few L2's worth of data the fork/join
/// handshake costs more than the loop.
constexpr size_t ElemGrain = 32768;

/// Runs an element-wise kernel over [0, N) in parallel with the scalar
/// operand hoisted: one of three specializations of \p Fn(I, X, Y) is
/// chosen once, outside the loop, instead of re-deriving `SA ? 0 : I` per
/// element. \p Fn receives the element index and both real operand values.
/// A one-element result (scalar op scalar, the bulk of recursive and
/// scalar code) applies \p Fn directly: no region set-up, but the same
/// interrupt poll a region entry makes.
template <typename Fn>
void forEachRealPair(size_t N, const double *PA, bool SA, const double *PB,
                     bool SB, Fn F) {
  if (N == 1) {
    exec::pollInterrupt();
    F(0, PA[0], PB[0]);
  } else if (SA && !SB) {
    double X = PA[0];
    par::parallelFor(N, ElemGrain, [&](size_t I0, size_t I1) {
      for (size_t I = I0; I != I1; ++I)
        F(I, X, PB[I]);
    });
  } else if (SB && !SA) {
    double Y = PB[0];
    par::parallelFor(N, ElemGrain, [&](size_t I0, size_t I1) {
      for (size_t I = I0; I != I1; ++I)
        F(I, PA[I], Y);
    });
  } else { // same shape (or both scalar)
    par::parallelFor(N, ElemGrain, [&](size_t I0, size_t I1) {
      for (size_t I = I0; I != I1; ++I)
        F(I, PA[I], PB[I]);
    });
  }
}

/// Generic element-wise arithmetic: applies \p RealFn on doubles when both
/// operands are real, \p CplxFn otherwise.
template <typename RealFn, typename CplxFn>
Value elemArith(const Value &AIn, const Value &BIn, const char *Name,
                bool IntPreserving, RealFn RF, CplxFn CF) {
  Value ScratchA, ScratchB;
  const Value &A = asNumericView(AIn, ScratchA);
  const Value &B = asNumericView(BIn, ScratchB);
  Shape S = broadcastShape(A, B, Name);
  MClass Cls = arithResultClass(A, B, IntPreserving);
  Value Out = Value::zeros(S.R, S.C, Cls);
  size_t N = Out.numel();
  bool SA = A.isScalar(), SB = B.isScalar();
  if (Cls != MClass::Complex) {
    double *PO = Out.reData();
    forEachRealPair(N, A.reData(), SA, B.reData(), SB,
                    [&RF, PO](size_t I, double X, double Y) { PO[I] = RF(X, Y); });
    return Out;
  }
  for (size_t I = 0; I != N; ++I) {
    Cplx R = CF(elemAt(A, I, SA), elemAt(B, I, SB));
    Out.reRef(I) = R.real();
    Out.imRef(I) = R.imag();
  }
  return Out;
}

/// Element-wise comparison; Lt/Le/Gt/Ge disregard imaginary parts, Eq/Ne
/// compare full complex values.
Value elemCompare(BinOp Op, const Value &AIn, const Value &BIn) {
  Value ScratchA, ScratchB;
  const Value &A = asNumericView(AIn, ScratchA);
  const Value &B = asNumericView(BIn, ScratchB);
  Shape S = broadcastShape(A, B, binOpName(Op));
  Value Out = Value::zeros(S.R, S.C, MClass::Bool);
  size_t N = Out.numel();
  bool SA = A.isScalar(), SB = B.isScalar();
  // Imaginary parts only participate in Eq/Ne, and only when present.
  bool NeedIm =
      (Op == BinOp::Eq || Op == BinOp::Ne) && (A.isComplex() || B.isComplex());
  if (NeedIm) {
    for (size_t I = 0; I != N; ++I) {
      double Ar = A.re(SA ? 0 : I), Br = B.re(SB ? 0 : I);
      bool Same = Ar == Br && A.im(SA ? 0 : I) == B.im(SB ? 0 : I);
      Out.reRef(I) = (Op == BinOp::Eq ? Same : !Same) ? 1.0 : 0.0;
    }
    return Out;
  }
  // Real fast path: hoist the operator dispatch out of the loop and run the
  // raw-pointer compare in parallel.
  double *PO = Out.reData();
  auto Run = [&](auto Cmp) {
    forEachRealPair(N, A.reData(), SA, B.reData(), SB,
                    [&Cmp, PO](size_t I, double X, double Y) {
                      PO[I] = Cmp(X, Y) ? 1.0 : 0.0;
                    });
  };
  switch (Op) {
  case BinOp::Lt:
    Run([](double X, double Y) { return X < Y; });
    break;
  case BinOp::Le:
    Run([](double X, double Y) { return X <= Y; });
    break;
  case BinOp::Gt:
    Run([](double X, double Y) { return X > Y; });
    break;
  case BinOp::Ge:
    Run([](double X, double Y) { return X >= Y; });
    break;
  case BinOp::Eq:
    Run([](double X, double Y) { return X == Y; });
    break;
  case BinOp::Ne:
    Run([](double X, double Y) { return X != Y; });
    break;
  default:
    majic_unreachable("not a comparison");
  }
  return Out;
}

Value elemLogical(BinOp Op, const Value &AIn, const Value &BIn) {
  Value ScratchA, ScratchB;
  const Value &A = asNumericView(AIn, ScratchA);
  const Value &B = asNumericView(BIn, ScratchB);
  if (A.isComplex() || B.isComplex())
    throw MatlabError("operands to & and | must be real");
  Shape S = broadcastShape(A, B, binOpName(Op));
  Value Out = Value::zeros(S.R, S.C, MClass::Bool);
  size_t N = Out.numel();
  bool SA = A.isScalar(), SB = B.isScalar();
  double *PO = Out.reData();
  bool IsAnd = Op == BinOp::And;
  forEachRealPair(N, A.reData(), SA, B.reData(), SB,
                  [IsAnd, PO](size_t I, double X, double Y) {
                    bool Ab = X != 0.0, Bb = Y != 0.0;
                    PO[I] = (IsAnd ? (Ab && Bb) : (Ab || Bb)) ? 1.0 : 0.0;
                  });
  return Out;
}

Value matMul(const Value &AIn, const Value &BIn) {
  Value ScratchA, ScratchB;
  const Value &A = asNumericView(AIn, ScratchA);
  const Value &B = asNumericView(BIn, ScratchB);
  if (A.isScalar() || B.isScalar())
    return elemArith(
        A, B, "*", /*IntPreserving=*/true,
        [](double X, double Y) { return X * Y; },
        [](Cplx X, Cplx Y) { return X * Y; });
  if (A.cols() != B.rows())
    throw MatlabError(format("inner matrix dimensions must agree for '*' "
                             "(%zux%zu times %zux%zu)",
                             A.rows(), A.cols(), B.rows(), B.cols()));
  size_t M = A.rows(), K = A.cols(), N = B.cols();
  if (!A.isComplex() && !B.isComplex()) {
    Value Out = Value::zeros(M, N, arithResultClass(A, B, true));
    blas::dgemm(M, N, K, 1.0, A.reData(), B.reData(), 0.0, Out.reData());
    return Out;
  }
  // Complex product over split planes; a real operand passes a null
  // imaginary plane instead of materializing a zero one, and zgemm reduces
  // the product to the plane combinations that actually exist.
  Value Out = Value::zeros(M, N, MClass::Complex);
  blas::zgemm(M, N, K, A.reData(), A.isComplex() ? A.imData() : nullptr,
              B.reData(), B.isComplex() ? B.imData() : nullptr, Out.reData(),
              Out.imData());
  return Out;
}

/// Element-wise power; escalates to a complex result when any element pair
/// is a negative real base with a non-integral exponent.
Value elemPow(const Value &AIn, const Value &BIn) {
  Value ScratchA, ScratchB;
  const Value &A = asNumericView(AIn, ScratchA);
  const Value &B = asNumericView(BIn, ScratchB);
  Shape S = broadcastShape(A, B, ".^");
  bool SA = A.isScalar(), SB = B.isScalar();
  size_t N = S.R * S.C;
  bool NeedComplex = A.isComplex() || B.isComplex();
  if (!NeedComplex) {
    for (size_t I = 0; I != N && !NeedComplex; ++I) {
      double X = A.re(SA ? 0 : I), Y = B.re(SB ? 0 : I);
      NeedComplex = X < 0 && Y != std::floor(Y);
    }
  }
  Value Out =
      Value::zeros(S.R, S.C, NeedComplex ? MClass::Complex : MClass::Real);
  for (size_t I = 0; I != N; ++I) {
    bool C;
    Cplx R = scalarPow(elemAt(A, I, SA), elemAt(B, I, SB), C);
    Out.reRef(I) = R.real();
    if (NeedComplex)
      Out.imRef(I) = R.imag();
  }
  return Out;
}

Value matPow(const Value &A, const Value &B) {
  if (A.isScalar() && B.isScalar())
    return elemPow(A, B);
  if (B.isScalar()) {
    double E = B.scalarValue();
    if (E != std::floor(E) || E < 0)
      throw MatlabError("matrix power requires a non-negative integer "
                        "exponent in this subset");
    if (A.rows() != A.cols())
      throw MatlabError("matrix power requires a square matrix");
    // Exponentiation by squaring over matMul.
    Value Result = Value::zeros(A.rows(), A.cols());
    for (size_t I = 0; I != A.rows(); ++I)
      Result.reRef(I * A.rows() + I) = 1.0;
    Result.setClass(MClass::Int);
    Value Base = A;
    auto N = static_cast<unsigned long long>(E);
    while (N) {
      if (N & 1)
        Result = matMul(Result, Base);
      N >>= 1;
      if (N)
        Base = matMul(Base, Base);
    }
    return Result;
  }
  throw MatlabError("unsupported operands for '^'");
}

Value matLDiv(const Value &A, const Value &B) {
  if (A.isScalar())
    return elemArith(
        A, B, "\\", /*IntPreserving=*/false,
        [](double X, double Y) { return Y / X; },
        [](Cplx X, Cplx Y) { return Y / X; });
  if (A.isComplex() || B.isComplex())
    throw MatlabError("complex linear solves are not supported");
  if (A.rows() != A.cols())
    throw MatlabError("mldivide requires a square system in this subset");
  if (A.rows() != B.rows())
    throw MatlabError("matrix dimensions must agree for '\\'");
  return linalg::solve(A, B);
}

/// Writes the transpose of the column-major Rows x Cols matrix \p In to
/// \p Out, negated when \p Negate, in 16 x 16 tiles so that the strided
/// reads of a tile stay in cache while its writes run down columns of Out.
/// (32-row tiles thrash the cache at power-of-two strides: at 512 x 512
/// they were 3x slower.)
void transposeCopy(const double *In, size_t Rows, size_t Cols, double *Out,
                   bool Negate) {
  constexpr size_t Tile = 16;
  for (size_t R0 = 0; R0 < Rows; R0 += Tile)
    for (size_t C0 = 0; C0 < Cols; C0 += Tile) {
      size_t RE = std::min(Rows, R0 + Tile), CE = std::min(Cols, C0 + Tile);
      for (size_t R = R0; R != RE; ++R)
        for (size_t C = C0; C != CE; ++C)
          Out[R * Cols + C] = Negate ? -In[C * Rows + R] : In[C * Rows + R];
    }
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

Value rt::binary(BinOp Op, const Value &A, const Value &B) {
  switch (Op) {
  case BinOp::Add:
    return elemArith(
        A, B, "+", true, [](double X, double Y) { return X + Y; },
        [](Cplx X, Cplx Y) { return X + Y; });
  case BinOp::Sub:
    return elemArith(
        A, B, "-", true, [](double X, double Y) { return X - Y; },
        [](Cplx X, Cplx Y) { return X - Y; });
  case BinOp::ElemMul:
    return elemArith(
        A, B, ".*", true, [](double X, double Y) { return X * Y; },
        [](Cplx X, Cplx Y) { return X * Y; });
  case BinOp::ElemRDiv:
    return elemArith(
        A, B, "./", false, [](double X, double Y) { return X / Y; },
        [](Cplx X, Cplx Y) { return X / Y; });
  case BinOp::ElemLDiv:
    return elemArith(
        A, B, ".\\", false, [](double X, double Y) { return Y / X; },
        [](Cplx X, Cplx Y) { return Y / X; });
  case BinOp::ElemPow:
    return elemPow(A, B);
  case BinOp::MatMul:
    return matMul(A, B);
  case BinOp::MatPow:
    return matPow(A, B);
  case BinOp::MatRDiv:
    if (B.isScalar())
      return elemArith(
          A, B, "/", false, [](double X, double Y) { return X / Y; },
          [](Cplx X, Cplx Y) { return X / Y; });
    // A/B == (B' \ A')'.
    return unary(UnOp::CTranspose,
                 matLDiv(unary(UnOp::CTranspose, B), unary(UnOp::CTranspose, A)));
  case BinOp::MatLDiv:
    return matLDiv(A, B);
  case BinOp::Lt:
  case BinOp::Le:
  case BinOp::Gt:
  case BinOp::Ge:
  case BinOp::Eq:
  case BinOp::Ne:
    return elemCompare(Op, A, B);
  case BinOp::And:
  case BinOp::Or:
    return elemLogical(Op, A, B);
  }
  majic_unreachable("invalid BinOp");
}

Value rt::unary(UnOp Op, const Value &VIn) {
  Value Scratch;
  const Value &V = asNumericView(VIn, Scratch);
  switch (Op) {
  case UnOp::Plus:
    return V;
  case UnOp::Neg: {
    Value Out = V;
    if (Out.mclass() == MClass::Bool)
      Out.setClass(MClass::Int);
    for (size_t I = 0, E = Out.numel(); I != E; ++I) {
      Out.reRef(I) = -Out.re(I);
      if (Out.isComplex())
        Out.imRef(I) = -Out.im(I);
    }
    return Out;
  }
  case UnOp::Not: {
    if (V.isComplex())
      throw MatlabError("operand to ~ must be real");
    Value Out = Value::zeros(V.rows(), V.cols(), MClass::Bool);
    for (size_t I = 0, E = V.numel(); I != E; ++I)
      Out.reRef(I) = V.re(I) == 0.0 ? 1.0 : 0.0;
    return Out;
  }
  case UnOp::CTranspose:
  case UnOp::Transpose: {
    Value Out = Value::uninit(V.cols(), V.rows(),
                              V.isComplex() ? MClass::Complex : V.mclass());
    transposeCopy(V.reData(), V.rows(), V.cols(), Out.reData(), false);
    if (V.isComplex())
      transposeCopy(V.imData(), V.rows(), V.cols(), Out.imData(),
                    /*Negate=*/Op == UnOp::CTranspose);
    return Out;
  }
  }
  majic_unreachable("invalid UnOp");
}

Value rt::matMulTransA(UnOp Op, const Value &X, const Value &Y) {
  bool Transposed = Op == UnOp::CTranspose || Op == UnOp::Transpose;
  // A real X' is X.' of the same class, and matMul takes the general
  // product (not the scalar broadcast) exactly when neither side is a
  // scalar; everything else, mismatches included, keeps its error text by
  // materializing.
  auto Real = [](const Value &V) { return !V.isComplex() && !V.isString(); };
  if (!Transposed || !Real(X) || !Real(Y) || X.isScalar() || Y.isScalar() ||
      X.rows() != Y.rows())
    return binary(BinOp::MatMul, unary(Op, X), Y);
  size_t M = X.cols(), K = X.rows(), N = Y.cols();
  Value Out = Value::zeros(M, N, arithResultClass(X, Y, true));
  blas::dgemmTA(M, N, K, 1.0, X.reData(), Y.reData(), 0.0, Out.reData());
  // Every non-NaN element is bit-identical to the materialized product's:
  // the same operations on the same operands in the same order. When two
  // different NaNs meet in one addition, the result is whichever operand
  // the instruction lists first, and compilers order commutative operands
  // freely; only the materialized path reproduces a NaN's sign and payload.
  if (std::any_of(Out.reData(), Out.reData() + Out.numel(),
                  [](double V) { return std::isnan(V); }))
    return binary(BinOp::MatMul, unary(Op, X), Y);
  return Out;
}

Value rt::colon(const Value &A, const Value &B) {
  // Only the real part of the first element is used; indices are rounded
  // (this is the behavior Section 2.5's colon hint is built on).
  return Value::range(A.isEmpty() ? 0 : A.re(0), 1.0, B.isEmpty() ? 0 : B.re(0));
}

Value rt::colon(const Value &A, const Value &S, const Value &B) {
  return Value::range(A.isEmpty() ? 0 : A.re(0), S.isEmpty() ? 1 : S.re(0),
                      B.isEmpty() ? 0 : B.re(0));
}

Value rt::elemwiseReal2(const Value &AIn, const Value &BIn, const char *Name,
                        double (*Fn)(double, double)) {
  Value ScratchA, ScratchB;
  const Value &A = asNumericView(AIn, ScratchA);
  const Value &B = asNumericView(BIn, ScratchB);
  if (A.isComplex() || B.isComplex())
    throw MatlabError(format("%s requires real arguments", Name));
  Shape S = broadcastShape(A, B, Name);
  Value Out = Value::zeros(S.R, S.C);
  bool SA = A.isScalar(), SB = B.isScalar();
  for (size_t I = 0, E = Out.numel(); I != E; ++I)
    Out.reRef(I) = Fn(A.re(SA ? 0 : I), B.re(SB ? 0 : I));
  return Out;
}

//===----------------------------------------------------------------------===//
// Concatenation
//===----------------------------------------------------------------------===//

static MClass concatClass(std::span<const Value *const> Parts) {
  MClass Cls = MClass::Bool;
  for (const Value *P : Parts) {
    MClass C = P->isString() ? MClass::Real : P->mclass();
    if (C == MClass::Complex)
      return MClass::Complex;
    if (static_cast<int>(C) > static_cast<int>(Cls))
      Cls = C;
  }
  return Cls;
}

Value rt::horzcat(std::span<const Value *const> Parts) {
  // All-string concatenation produces a string.
  bool AllStrings = !Parts.empty();
  for (const Value *P : Parts)
    AllStrings &= P->isString();
  if (AllStrings) {
    std::string S;
    for (const Value *P : Parts)
      S += P->stringValue();
    return Value::str(std::move(S));
  }

  size_t Rows = 0, Cols = 0;
  std::vector<Value> Numeric;
  Numeric.reserve(Parts.size());
  for (const Value *P : Parts) {
    Numeric.push_back(asNumeric(*P));
    const Value &V = Numeric.back();
    if (V.isEmpty())
      continue;
    if (Rows == 0)
      Rows = V.rows();
    else if (V.rows() != Rows)
      throw MatlabError("horizontal concatenation requires equal row counts");
    Cols += V.cols();
  }
  Value Out = Value::zeros(Rows, Cols, concatClass(Parts));
  size_t ColBase = 0;
  for (const Value &V : Numeric) {
    if (V.isEmpty())
      continue;
    for (size_t C = 0; C != V.cols(); ++C) {
      for (size_t R = 0; R != Rows; ++R) {
        Out.reRef((ColBase + C) * Rows + R) = V.at(R, C);
        if (Out.isComplex())
          Out.imRef((ColBase + C) * Rows + R) = V.atIm(R, C);
      }
    }
    ColBase += V.cols();
  }
  return Out;
}

Value rt::vertcat(std::span<const Value *const> Parts) {
  size_t Rows = 0, Cols = 0;
  std::vector<Value> Numeric;
  Numeric.reserve(Parts.size());
  for (const Value *P : Parts) {
    Numeric.push_back(asNumeric(*P));
    const Value &V = Numeric.back();
    if (V.isEmpty())
      continue;
    if (Cols == 0)
      Cols = V.cols();
    else if (V.cols() != Cols)
      throw MatlabError("vertical concatenation requires equal column counts");
    Rows += V.rows();
  }
  Value Out = Value::zeros(Rows, Cols, concatClass(Parts));
  size_t RowBase = 0;
  for (const Value &V : Numeric) {
    if (V.isEmpty())
      continue;
    for (size_t C = 0; C != Cols; ++C) {
      for (size_t R = 0; R != V.rows(); ++R) {
        Out.reRef(C * Rows + RowBase + R) = V.at(R, C);
        if (Out.isComplex())
          Out.imRef(C * Rows + RowBase + R) = V.atIm(R, C);
      }
    }
    RowBase += V.rows();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Indexing
//===----------------------------------------------------------------------===//

[[noreturn]] static void throwNotPositive(double X) {
  throw MatlabError(
      format("subscript indices must be positive integers (got %g)", X));
}

[[noreturn]] static void throwOutOfRange(const char *What, size_t Index,
                                         size_t DimLen) {
  throw MatlabError(format("index out of bounds: %s index %zu exceeds "
                           "dimension length %zu",
                           What, Index, DimLen));
}

size_t rt::checkSubscript(double X) {
  double R = std::round(X);
  if (std::abs(X - R) > 1e-8 || R < 1)
    throwNotPositive(X);
  return static_cast<size_t>(R) - 1;
}

void rt::throwBadRead(int64_t I, size_t Numel) {
  if (I < 1)
    throwNotPositive(static_cast<double>(I));
  throwOutOfRange("linear", static_cast<size_t>(I), Numel);
}

void rt::throwBadRead(int64_t R, int64_t C, size_t Rows, size_t Cols) {
  for (int64_t X : {R, C})
    if (X < 1)
      throwNotPositive(static_cast<double>(X));
  if (static_cast<size_t>(R) > Rows)
    throwOutOfRange("row", static_cast<size_t>(R), Rows);
  throwOutOfRange("column", static_cast<size_t>(C), Cols);
}

Indexer Indexer::fromValue(const Value &V, size_t DimLen) {
  Indexer I;
  if (V.mclass() == MClass::Bool) {
    if (V.numel() > DimLen)
      throw MatlabError("logical index is longer than the indexed dimension");
    for (size_t K = 0, E = V.numel(); K != E; ++K)
      if (V.re(K) != 0.0)
        I.Zero.push_back(K);
    return I;
  }
  Value Scratch;
  const Value &Num = asNumericView(V, Scratch);
  I.Zero.reserve(Num.numel());
  for (size_t K = 0, E = Num.numel(); K != E; ++K)
    I.Zero.push_back(checkSubscript(Num.re(K)));
  return I;
}

size_t Indexer::requiredLen(size_t DimLen) const {
  if (IsColon)
    return DimLen;
  size_t Max = 0;
  for (size_t X : Zero)
    Max = std::max(Max, X + 1);
  return Max;
}

static void checkInRange(const Indexer &I, size_t DimLen, const char *What) {
  if (I.isColon())
    return;
  for (size_t X : I.indices())
    if (X >= DimLen)
      throwOutOfRange(What, X + 1, DimLen);
}

Value rt::index1(const Value &AIn, const Indexer &I) {
  Value Scratch;
  const Value &A = asNumericView(AIn, Scratch);
  size_t N = A.numel();
  checkInRange(I, N, "linear");
  size_t Count = I.count(N);

  // Shape rule: A(:) is a column; indexing a vector preserves its
  // orientation; otherwise the result is a row.
  size_t OutR, OutC;
  if (I.isColon()) {
    OutR = Count;
    OutC = Count ? 1 : 0;
  } else if (A.isColVector() && !A.isScalar()) {
    OutR = Count;
    OutC = Count ? 1 : 0;
  } else {
    OutR = Count ? 1 : 0;
    OutC = Count;
  }
  Value Out =
      Value::zeros(OutR, OutC, A.isComplex() ? MClass::Complex : A.mclass());
  for (size_t K = 0; K != Count; ++K) {
    size_t Src = I.isColon() ? K : I.indices()[K];
    Out.reRef(K) = A.re(Src);
    if (A.isComplex())
      Out.imRef(K) = A.im(Src);
  }
  return Out;
}

Value rt::index2(const Value &AIn, const Indexer &R, const Indexer &C) {
  Value Scratch;
  const Value &A = asNumericView(AIn, Scratch);
  checkInRange(R, A.rows(), "row");
  checkInRange(C, A.cols(), "column");
  size_t NR = R.count(A.rows()), NC = C.count(A.cols());
  Value Out =
      Value::zeros(NR, NC, A.isComplex() ? MClass::Complex : A.mclass());
  for (size_t J = 0; J != NC; ++J) {
    size_t SrcC = C.isColon() ? J : C.indices()[J];
    for (size_t K = 0; K != NR; ++K) {
      size_t SrcR = R.isColon() ? K : R.indices()[K];
      Out.reRef(J * NR + K) = A.at(SrcR, SrcC);
      if (A.isComplex())
        Out.imRef(J * NR + K) = A.atIm(SrcR, SrcC);
    }
  }
  return Out;
}

/// Promotes A's storage/class so that elements of RHS can be stored into it.
static void promoteForAssign(Value &A, const Value &RHS) {
  if (RHS.isComplex() && !A.isComplex())
    A.makeComplex();
  if (!RHS.isComplex()) {
    auto Rank = [](MClass C) { return static_cast<int>(C); };
    if (!A.isComplex() && Rank(RHS.mclass()) > Rank(A.mclass()))
      A.setClass(RHS.mclass());
  }
}

void rt::indexAssign1(Value &A, const Indexer &I, const Value &RHSIn) {
  Value Scratch;
  const Value &RHS = asNumericView(RHSIn, Scratch);
  size_t Count = I.count(A.numel());
  if (!RHS.isScalar() && RHS.numel() != Count)
    throw MatlabError("in an assignment A(I) = B, the number of elements in "
                      "B and I must be the same");

  size_t Required = I.requiredLen(A.numel());
  if (Required > A.numel()) {
    // Scalars and empties grow into row vectors, like MATLAB.
    if (A.isEmpty() || A.isScalar() || A.isRowVector())
      A.growTo(1, Required);
    else if (A.isColVector())
      A.growTo(Required, 1);
    else
      throw MatlabError("in an assignment A(I) = B, a matrix A cannot be "
                        "resized through a linear index");
  }
  promoteForAssign(A, RHS);
  bool SR = RHS.isScalar();
  for (size_t K = 0; K != Count; ++K) {
    size_t Dst = I.isColon() ? K : I.indices()[K];
    A.reRef(Dst) = RHS.re(SR ? 0 : K);
    if (A.isComplex())
      A.imRef(Dst) = RHS.im(SR ? 0 : K);
  }
}

void rt::indexAssign2(Value &A, const Indexer &R, const Indexer &C,
                      const Value &RHSIn) {
  Value Scratch;
  const Value &RHS = asNumericView(RHSIn, Scratch);
  // Colon extents refer to the pre-growth dimensions.
  size_t NR = R.count(A.rows()), NC = C.count(A.cols());
  if (!RHS.isScalar() && RHS.numel() != NR * NC)
    throw MatlabError("subscripted assignment dimension mismatch");

  size_t ReqR = R.requiredLen(A.rows()), ReqC = C.requiredLen(A.cols());
  if (A.isEmpty() && (R.isColon() || C.isColon())) {
    // A(:,j) = v with empty A adopts the RHS extent for the colon dimension.
    if (R.isColon())
      NR = ReqR = RHS.isScalar() ? 1 : RHS.numel() / std::max<size_t>(NC, 1);
    if (C.isColon())
      NC = ReqC = RHS.isScalar() ? 1 : RHS.numel() / std::max<size_t>(NR, 1);
  }
  if (ReqR > A.rows() || ReqC > A.cols())
    A.growTo(ReqR, ReqC);
  promoteForAssign(A, RHS);

  bool SR = RHS.isScalar();
  size_t Rows = A.rows();
  for (size_t J = 0; J != NC; ++J) {
    size_t DstC = C.isColon() ? J : C.indices()[J];
    for (size_t K = 0; K != NR; ++K) {
      size_t DstR = R.isColon() ? K : R.indices()[K];
      size_t Dst = DstC * Rows + DstR;
      size_t Src = SR ? 0 : J * NR + K;
      A.reRef(Dst) = RHS.re(Src);
      if (A.isComplex())
        A.imRef(Dst) = RHS.im(Src);
    }
  }
}

//===----------------------------------------------------------------------===//
// Display
//===----------------------------------------------------------------------===//

std::string rt::displayValue(const Value &V, const std::string &Name) {
  std::string Out = Name + " =";
  if (V.isString())
    return Out + " '" + V.stringValue() + "'\n";
  if (V.isEmpty())
    return Out + " []\n";
  auto Elem = [&](size_t R, size_t C) {
    std::string S = formatDouble(V.at(R, C));
    if (V.isComplex()) {
      double Im = V.atIm(R, C);
      S += (Im < 0 ? " - " : " + ") + formatDouble(std::abs(Im)) + "i";
    }
    return S;
  };
  if (V.isScalar())
    return Out + " " + Elem(0, 0) + "\n";
  Out += "\n";
  for (size_t R = 0; R != V.rows(); ++R) {
    Out += "  ";
    for (size_t C = 0; C != V.cols(); ++C) {
      Out += " " + Elem(R, C);
    }
    Out += "\n";
  }
  return Out;
}
