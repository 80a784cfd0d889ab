//===- runtime/Builtins.cpp - MATLAB builtin functions ---------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Builtins.h"

#include "runtime/Blas.h"
#include "support/Parallel.h"
#include "runtime/LinAlg.h"
#include "runtime/Ops.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <numeric>

using namespace majic;
using namespace majic::rt;

using Cplx = std::complex<double>;
using Args = std::span<const Value *const>;

//===----------------------------------------------------------------------===//
// Scalar intrinsics
//===----------------------------------------------------------------------===//

double majic::evalScalarIntrinsic1(ScalarIntrinsic Op, double X) {
  switch (Op) {
  case ScalarIntrinsic::Abs:
    return std::fabs(X);
  case ScalarIntrinsic::Sqrt:
    return std::sqrt(X);
  case ScalarIntrinsic::Exp:
    return std::exp(X);
  case ScalarIntrinsic::Log:
    return std::log(X);
  case ScalarIntrinsic::Log2:
    return std::log2(X);
  case ScalarIntrinsic::Log10:
    return std::log10(X);
  case ScalarIntrinsic::Sin:
    return std::sin(X);
  case ScalarIntrinsic::Cos:
    return std::cos(X);
  case ScalarIntrinsic::Tan:
    return std::tan(X);
  case ScalarIntrinsic::Asin:
    return std::asin(X);
  case ScalarIntrinsic::Acos:
    return std::acos(X);
  case ScalarIntrinsic::Atan:
    return std::atan(X);
  case ScalarIntrinsic::Sinh:
    return std::sinh(X);
  case ScalarIntrinsic::Cosh:
    return std::cosh(X);
  case ScalarIntrinsic::Tanh:
    return std::tanh(X);
  case ScalarIntrinsic::Floor:
    return std::floor(X);
  case ScalarIntrinsic::Ceil:
    return std::ceil(X);
  case ScalarIntrinsic::Round:
    return std::round(X);
  case ScalarIntrinsic::Fix:
    return std::trunc(X);
  case ScalarIntrinsic::Sign:
    return X > 0 ? 1.0 : X < 0 ? -1.0 : 0.0;
  default:
    majic_unreachable("not a unary scalar intrinsic");
  }
}

double majic::evalScalarIntrinsic2(ScalarIntrinsic Op, double X, double Y) {
  switch (Op) {
  case ScalarIntrinsic::Atan2:
    return std::atan2(X, Y);
  case ScalarIntrinsic::Mod:
    return Y == 0 ? X : X - std::floor(X / Y) * Y;
  case ScalarIntrinsic::Rem:
    return Y == 0 ? std::numeric_limits<double>::quiet_NaN()
                  : X - std::trunc(X / Y) * Y;
  case ScalarIntrinsic::Min2:
    return std::min(X, Y);
  case ScalarIntrinsic::Max2:
    return std::max(X, Y);
  case ScalarIntrinsic::Hypot:
    return std::hypot(X, Y);
  default:
    majic_unreachable("not a binary scalar intrinsic");
  }
}

unsigned majic::scalarIntrinsicArity(ScalarIntrinsic Op) {
  switch (Op) {
  case ScalarIntrinsic::None:
    return 0;
  case ScalarIntrinsic::Atan2:
  case ScalarIntrinsic::Mod:
  case ScalarIntrinsic::Rem:
  case ScalarIntrinsic::Min2:
  case ScalarIntrinsic::Max2:
  case ScalarIntrinsic::Hypot:
    return 2;
  default:
    return 1;
  }
}

bool majic::scalarIntrinsicNeedsGuard(ScalarIntrinsic Op) {
  return Op == ScalarIntrinsic::Sqrt || Op == ScalarIntrinsic::Log ||
         Op == ScalarIntrinsic::Log2 || Op == ScalarIntrinsic::Log10 ||
         Op == ScalarIntrinsic::Asin || Op == ScalarIntrinsic::Acos;
}

//===----------------------------------------------------------------------===//
// Builtin implementations
//===----------------------------------------------------------------------===//

namespace {

std::vector<Value> one(Value V) {
  std::vector<Value> R;
  R.push_back(std::move(V));
  return R;
}

/// Shape arguments of zeros/ones/rand/eye: (), (n), (n, m).
void creatorShape(Args A, size_t &R, size_t &C) {
  if (A.empty()) {
    R = C = 1;
    return;
  }
  double N = A[0]->scalarValue();
  if (N < 0)
    N = 0;
  if (A.size() == 1) {
    R = C = static_cast<size_t>(N);
    return;
  }
  double M = A[1]->scalarValue();
  if (M < 0)
    M = 0;
  R = static_cast<size_t>(N);
  C = static_cast<size_t>(M);
}

std::vector<Value> bZeros(Context &, Args A, size_t) {
  size_t R, C;
  creatorShape(A, R, C);
  return one(Value::zeros(R, C));
}

std::vector<Value> bOnes(Context &, Args A, size_t) {
  size_t R, C;
  creatorShape(A, R, C);
  Value V = Value::zeros(R, C);
  std::fill(V.reData(), V.reData() + V.numel(), 1.0);
  V.setClass(MClass::Int);
  return one(std::move(V));
}

std::vector<Value> bEye(Context &, Args A, size_t) {
  size_t R, C;
  creatorShape(A, R, C);
  Value V = Value::zeros(R, C);
  for (size_t I = 0; I != std::min(R, C); ++I)
    V.reRef(I * R + I) = 1.0;
  V.setClass(MClass::Int);
  return one(std::move(V));
}

std::vector<Value> bRand(Context &Ctx, Args A, size_t) {
  size_t R, C;
  creatorShape(A, R, C);
  Value V = Value::zeros(R, C);
  // Column-major fill order is part of the reproducibility contract.
  for (size_t I = 0, E = V.numel(); I != E; ++I)
    V.reRef(I) = Ctx.Rand.nextDouble();
  return one(std::move(V));
}

std::vector<Value> bSize(Context &, Args A, size_t NumOuts) {
  const Value &V = *A[0];
  if (A.size() == 2) {
    double Dim = A[1]->scalarValue();
    size_t D = checkSubscript(Dim);
    double Len = D == 0 ? V.rows() : D == 1 ? V.cols() : 1;
    return one(Value::intScalar(Len));
  }
  if (NumOuts >= 2) {
    std::vector<Value> Out;
    Out.push_back(Value::intScalar(static_cast<double>(V.rows())));
    Out.push_back(Value::intScalar(static_cast<double>(V.cols())));
    return Out;
  }
  Value S = Value::zeros(1, 2, MClass::Int);
  S.reRef(0) = static_cast<double>(V.rows());
  S.reRef(1) = static_cast<double>(V.cols());
  return one(std::move(S));
}

std::vector<Value> bLength(Context &, Args A, size_t) {
  const Value &V = *A[0];
  double L = V.isEmpty() ? 0 : static_cast<double>(std::max(V.rows(), V.cols()));
  return one(Value::intScalar(L));
}

std::vector<Value> bNumel(Context &, Args A, size_t) {
  return one(Value::intScalar(static_cast<double>(A[0]->numel())));
}

std::vector<Value> bIsempty(Context &, Args A, size_t) {
  return one(Value::boolScalar(A[0]->isEmpty()));
}

std::vector<Value> bIsreal(Context &, Args A, size_t) {
  return one(Value::boolScalar(!A[0]->isComplex()));
}

std::vector<Value> bIsscalar(Context &, Args A, size_t) {
  return one(Value::boolScalar(A[0]->isScalar()));
}

//===----------------------------------------------------------------------===//
// Element-wise math
//===----------------------------------------------------------------------===//

/// Applies a real and a complex kernel element-wise. \p EscalatePred says
/// whether a real input element forces a complex result (sqrt/log of
/// negative values).
template <typename RealFn, typename CplxFn, typename Pred>
Value mapMath(const Value &VIn, RealFn RF, CplxFn CF, Pred EscalatePred) {
  Value Scratch;
  const Value &V = asNumericView(VIn, Scratch);
  size_t N = V.numel();
  bool NeedComplex = V.isComplex();
  if (!NeedComplex) {
    for (size_t I = 0; I != N && !NeedComplex; ++I)
      NeedComplex = EscalatePred(V.re(I));
  }
  if (!NeedComplex) {
    Value Out = Value::zeros(V.rows(), V.cols());
    for (size_t I = 0; I != N; ++I)
      Out.reRef(I) = RF(V.re(I));
    return Out;
  }
  Value Out = Value::zeros(V.rows(), V.cols(), MClass::Complex);
  for (size_t I = 0; I != N; ++I) {
    Cplx R = CF(Cplx(V.re(I), V.im(I)));
    Out.reRef(I) = R.real();
    Out.imRef(I) = R.imag();
  }
  Out.demoteComplexIfReal();
  return Out;
}

/// Real-only element-wise map; complex inputs are an error.
template <typename RealFn>
Value mapReal(const Value &VIn, const char *Name, RealFn RF) {
  Value Scratch;
  const Value &V = asNumericView(VIn, Scratch);
  if (V.isComplex())
    throw MatlabError(format("%s requires a real argument", Name));
  Value Out = Value::zeros(V.rows(), V.cols());
  for (size_t I = 0, E = V.numel(); I != E; ++I)
    Out.reRef(I) = RF(V.re(I));
  return Out;
}

std::vector<Value> bAbs(Context &, Args A, size_t) {
  Value Scratch;
  const Value &V = asNumericView(*A[0], Scratch);
  Value Out = Value::zeros(V.rows(), V.cols());
  for (size_t I = 0, E = V.numel(); I != E; ++I)
    Out.reRef(I) = V.isComplex() ? std::hypot(V.re(I), V.im(I))
                                 : std::fabs(V.re(I));
  return one(std::move(Out));
}

std::vector<Value> bSqrt(Context &, Args A, size_t) {
  return one(mapMath(
      *A[0], [](double X) { return std::sqrt(X); },
      [](Cplx X) { return std::sqrt(X); }, [](double X) { return X < 0; }));
}

std::vector<Value> bExp(Context &, Args A, size_t) {
  return one(mapMath(
      *A[0], [](double X) { return std::exp(X); },
      [](Cplx X) { return std::exp(X); }, [](double) { return false; }));
}

std::vector<Value> bLog(Context &, Args A, size_t) {
  return one(mapMath(
      *A[0], [](double X) { return std::log(X); },
      [](Cplx X) { return std::log(X); }, [](double X) { return X < 0; }));
}

std::vector<Value> bReal(Context &, Args A, size_t) {
  Value V = asNumeric(*A[0]);
  Value Out = Value::zeros(V.rows(), V.cols());
  for (size_t I = 0, E = V.numel(); I != E; ++I)
    Out.reRef(I) = V.re(I);
  return one(std::move(Out));
}

std::vector<Value> bImag(Context &, Args A, size_t) {
  Value V = asNumeric(*A[0]);
  Value Out = Value::zeros(V.rows(), V.cols());
  for (size_t I = 0, E = V.numel(); I != E; ++I)
    Out.reRef(I) = V.im(I);
  return one(std::move(Out));
}

std::vector<Value> bConj(Context &, Args A, size_t) {
  Value V = asNumeric(*A[0]);
  if (!V.isComplex())
    return one(std::move(V));
  Value Out = V;
  for (size_t I = 0, E = V.numel(); I != E; ++I)
    Out.imRef(I) = -V.im(I);
  return one(std::move(Out));
}

std::vector<Value> bAngle(Context &, Args A, size_t) {
  Value V = asNumeric(*A[0]);
  Value Out = Value::zeros(V.rows(), V.cols());
  for (size_t I = 0, E = V.numel(); I != E; ++I)
    Out.reRef(I) = std::atan2(V.im(I), V.re(I));
  return one(std::move(Out));
}

//===----------------------------------------------------------------------===//
// Reductions
//===----------------------------------------------------------------------===//

/// Applies a column-wise reduction: vectors reduce to a scalar, matrices to
/// a row vector (MATLAB's dimension convention).
/// Fixed partial-reduction chunk width for long vectors. The chunking (and
/// therefore the combination order, and the floating-point result) depends
/// only on the element count, never on the thread count: every chunk's
/// partial is folded from Init identically, and the partials are merged
/// sequentially in chunk order - bit-identical for any ComputeThreads.
constexpr size_t ReduceChunk = 16384;

template <typename Fn>
Value reduceColumns(const Value &VIn, double Init, Fn Step) {
  Value Scratch;
  const Value &V = asNumericView(VIn, Scratch);
  if (V.isComplex())
    throw MatlabError("complex reductions are not supported in this subset");
  if (V.isEmpty())
    return Value::scalar(Init);
  if (V.isVector()) {
    const double *P = V.reData();
    size_t N = V.numel();
    if (N >= 2 * ReduceChunk) {
      // Chunked: valid because Init is Step's identity and Step itself
      // merges two partial accumulations (sum, prod, any, all all qualify).
      size_t NumChunks = (N + ReduceChunk - 1) / ReduceChunk;
      std::vector<double> Partials(NumChunks);
      par::parallelFor(NumChunks, 1, [&](size_t C0, size_t C1) {
        for (size_t C = C0; C != C1; ++C) {
          double Acc = Init;
          size_t End = std::min(N, (C + 1) * ReduceChunk);
          for (size_t I = C * ReduceChunk; I != End; ++I)
            Acc = Step(Acc, P[I]);
          Partials[C] = Acc;
        }
      });
      double Acc = Init;
      for (double Partial : Partials)
        Acc = Step(Acc, Partial);
      return Value::scalar(Acc);
    }
    double Acc = Init;
    for (size_t I = 0; I != N; ++I)
      Acc = Step(Acc, P[I]);
    return Value::scalar(Acc);
  }
  Value Out = Value::zeros(1, V.cols());
  // Each column folds sequentially exactly as in the serial code; threads
  // only decide which columns they own, so results cannot depend on them.
  const double *P = V.reData();
  double *PO = Out.reData();
  size_t Rows = V.rows();
  par::parallelFor(V.cols(), std::max<size_t>(1, ReduceChunk / Rows),
                   [&](size_t C0, size_t C1) {
                     for (size_t C = C0; C != C1; ++C) {
                       double Acc = Init;
                       const double *Col = P + C * Rows;
                       for (size_t R = 0; R != Rows; ++R)
                         Acc = Step(Acc, Col[R]);
                       PO[C] = Acc;
                     }
                   });
  return Out;
}

std::vector<Value> bSum(Context &, Args A, size_t) {
  return one(reduceColumns(*A[0], 0.0,
                           [](double Acc, double X) { return Acc + X; }));
}

std::vector<Value> bProd(Context &, Args A, size_t) {
  return one(reduceColumns(*A[0], 1.0,
                           [](double Acc, double X) { return Acc * X; }));
}

std::vector<Value> bMean(Context &, Args A, size_t) {
  const Value &V = *A[0];
  if (V.isEmpty())
    throw MatlabError("mean of an empty array");
  Value Sum = reduceColumns(V, 0.0,
                            [](double Acc, double X) { return Acc + X; });
  double Den = V.isVector() ? static_cast<double>(V.numel())
                            : static_cast<double>(V.rows());
  return one(binary(BinOp::MatRDiv, Sum, Value::scalar(Den)));
}

/// max/min: one-argument (reduction, optional index output) and two-argument
/// (element-wise) forms.
std::vector<Value> minMax(Args A, size_t NumOuts, bool IsMax) {
  auto Better = [IsMax](double X, double Y) { return IsMax ? X > Y : X < Y; };
  if (A.size() == 2) {
    Value R = rt::binary(IsMax ? BinOp::Ge : BinOp::Le, *A[0], *A[1]);
    // Element-wise select via the comparison mask.
    Value X = asNumeric(*A[0]), Y = asNumeric(*A[1]);
    size_t N = std::max(X.numel(), Y.numel());
    size_t Rows = X.isScalar() ? Y.rows() : X.rows();
    size_t Cols = X.isScalar() ? Y.cols() : X.cols();
    Value Out = Value::zeros(Rows, Cols);
    for (size_t I = 0; I != N; ++I) {
      double Xv = X.re(X.isScalar() ? 0 : I), Yv = Y.re(Y.isScalar() ? 0 : I);
      Out.reRef(I) = Better(Xv, Yv) || Xv == Yv ? Xv : Yv;
    }
    return one(std::move(Out));
  }

  Value V = asNumeric(*A[0]);
  if (V.isComplex())
    throw MatlabError("complex max/min is not supported in this subset");
  if (V.isEmpty())
    return one(Value());
  if (V.isVector()) {
    size_t BestIdx = 0;
    for (size_t I = 1, E = V.numel(); I != E; ++I)
      if (Better(V.re(I), V.re(BestIdx)))
        BestIdx = I;
    std::vector<Value> Out;
    Out.push_back(Value::scalar(V.re(BestIdx)));
    if (NumOuts >= 2)
      Out.push_back(Value::intScalar(static_cast<double>(BestIdx + 1)));
    return Out;
  }
  Value M = Value::zeros(1, V.cols());
  Value Idx = Value::zeros(1, V.cols(), MClass::Int);
  for (size_t C = 0; C != V.cols(); ++C) {
    size_t BestIdx = 0;
    for (size_t R = 1; R != V.rows(); ++R)
      if (Better(V.at(R, C), V.at(BestIdx, C)))
        BestIdx = R;
    M.reRef(C) = V.at(BestIdx, C);
    Idx.reRef(C) = static_cast<double>(BestIdx + 1);
  }
  std::vector<Value> Out;
  Out.push_back(std::move(M));
  if (NumOuts >= 2)
    Out.push_back(std::move(Idx));
  return Out;
}

std::vector<Value> bMax(Context &, Args A, size_t NumOuts) {
  return minMax(A, NumOuts, /*IsMax=*/true);
}
std::vector<Value> bMin(Context &, Args A, size_t NumOuts) {
  return minMax(A, NumOuts, /*IsMax=*/false);
}

std::vector<Value> bNorm(Context &, Args A, size_t) {
  Value V = asNumeric(*A[0]);
  double P = 2;
  bool Fro = false, IsInf = false;
  if (A.size() == 2) {
    if (A[1]->isString()) {
      if (A[1]->stringValue() == "fro")
        Fro = true;
      else if (A[1]->stringValue() == "inf")
        IsInf = true;
      else
        throw MatlabError("unknown norm type");
    } else {
      P = A[1]->scalarValue();
      IsInf = std::isinf(P);
    }
  }
  if (V.isComplex()) {
    // norm over |elements| for vectors.
    if (!V.isVector() && !Fro)
      throw MatlabError("complex matrix norms are not supported");
    double Sum = 0;
    for (size_t I = 0, E = V.numel(); I != E; ++I) {
      double Mag = std::hypot(V.re(I), V.im(I));
      Sum += Mag * Mag;
    }
    return one(Value::scalar(std::sqrt(Sum)));
  }
  if (V.isVector() || Fro) {
    if (Fro || (P == 2 && !IsInf))
      return one(Value::scalar(blas::dnrm2(V.numel(), V.reData())));
    if (IsInf) {
      double M = 0;
      for (size_t I = 0, E = V.numel(); I != E; ++I)
        M = std::max(M, std::fabs(V.re(I)));
      return one(Value::scalar(M));
    }
    double Sum = 0;
    for (size_t I = 0, E = V.numel(); I != E; ++I)
      Sum += std::pow(std::fabs(V.re(I)), P);
    return one(Value::scalar(std::pow(Sum, 1.0 / P)));
  }
  // Matrix norms: 1 (max column sum), inf (max row sum), 2 (spectral).
  if (P == 1 || IsInf) {
    double M = 0;
    if (P == 1) {
      for (size_t C = 0; C != V.cols(); ++C) {
        double S = 0;
        for (size_t R = 0; R != V.rows(); ++R)
          S += std::fabs(V.at(R, C));
        M = std::max(M, S);
      }
    } else {
      for (size_t R = 0; R != V.rows(); ++R) {
        double S = 0;
        for (size_t C = 0; C != V.cols(); ++C)
          S += std::fabs(V.at(R, C));
        M = std::max(M, S);
      }
    }
    return one(Value::scalar(M));
  }
  // Spectral norm: sqrt(max eig(A' * A)), the product read in place. A NaN
  // makes the norm NaN and an Inf makes it Inf (eig rejects both).
  const double *VD = V.reData();
  if (std::any_of(VD, VD + V.numel(), [](double X) { return std::isnan(X); }))
    return one(Value::scalar(std::numeric_limits<double>::quiet_NaN()));
  if (std::any_of(VD, VD + V.numel(), [](double X) { return std::isinf(X); }))
    return one(Value::scalar(std::numeric_limits<double>::infinity()));
  Value AtA = matMulTransA(UnOp::CTranspose, V, V);
  Value Eigs = linalg::symEig(AtA);
  double MaxEig = Eigs.isEmpty() ? 0.0 : Eigs.re(Eigs.numel() - 1);
  return one(Value::scalar(std::sqrt(std::max(0.0, MaxEig))));
}

std::vector<Value> bDot(Context &, Args A, size_t) {
  Value X = asNumeric(*A[0]), Y = asNumeric(*A[1]);
  if (X.numel() != Y.numel())
    throw MatlabError("dot requires vectors of the same length");
  if (!X.isComplex() && !Y.isComplex())
    return one(Value::scalar(blas::ddot(X.numel(), X.reData(), Y.reData())));
  Cplx Sum = 0;
  for (size_t I = 0, E = X.numel(); I != E; ++I)
    Sum += std::conj(Cplx(X.re(I), X.im(I))) * Cplx(Y.re(I), Y.im(I));
  return one(Value::complexScalar(Sum.real(), Sum.imag()));
}

//===----------------------------------------------------------------------===//
// Structure / search
//===----------------------------------------------------------------------===//

std::vector<Value> bFind(Context &, Args A, size_t) {
  Value Scratch;
  const Value &V = asNumericView(*A[0], Scratch);
  std::vector<double> Hits;
  for (size_t I = 0, E = V.numel(); I != E; ++I)
    if (V.re(I) != 0.0 || V.im(I) != 0.0)
      Hits.push_back(static_cast<double>(I + 1));
  bool Row = V.isRowVector();
  Value Out = Value::zeros(Row ? 1 : Hits.size(), Row ? Hits.size()
                                                      : (Hits.empty() ? 0 : 1),
                           MClass::Int);
  for (size_t I = 0; I != Hits.size(); ++I)
    Out.reRef(I) = Hits[I];
  return one(std::move(Out));
}

std::vector<Value> bAny(Context &, Args A, size_t) {
  Value V = asNumeric(*A[0]);
  Value R = reduceColumns(V, 0.0, [](double Acc, double X) {
    return Acc != 0.0 || X != 0.0 ? 1.0 : 0.0;
  });
  R.setClass(MClass::Bool);
  return one(std::move(R));
}

std::vector<Value> bAll(Context &, Args A, size_t) {
  Value V = asNumeric(*A[0]);
  Value R = reduceColumns(V, 1.0, [](double Acc, double X) {
    return Acc != 0.0 && X != 0.0 ? 1.0 : 0.0;
  });
  R.setClass(MClass::Bool);
  return one(std::move(R));
}

std::vector<Value> bSort(Context &, Args A, size_t NumOuts) {
  Value V = asNumeric(*A[0]);
  if (!V.isVector() && !V.isEmpty())
    throw MatlabError("sort supports only vectors in this subset");
  std::vector<size_t> Order(V.numel());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t X, size_t Y) { return V.re(X) < V.re(Y); });
  Value Out = Value::zeros(V.rows(), V.cols());
  Value Idx = Value::zeros(V.rows(), V.cols(), MClass::Int);
  for (size_t I = 0; I != Order.size(); ++I) {
    Out.reRef(I) = V.re(Order[I]);
    Idx.reRef(I) = static_cast<double>(Order[I] + 1);
  }
  std::vector<Value> R;
  R.push_back(std::move(Out));
  if (NumOuts >= 2)
    R.push_back(std::move(Idx));
  return R;
}

std::vector<Value> bLinspace(Context &, Args A, size_t) {
  double Lo = A[0]->scalarValue(), Hi = A[1]->scalarValue();
  size_t N = A.size() == 3 ? static_cast<size_t>(A[2]->scalarValue()) : 100;
  Value Out = Value::zeros(1, N);
  for (size_t I = 0; I != N; ++I)
    Out.reRef(I) =
        N == 1 ? Hi : Lo + (Hi - Lo) * static_cast<double>(I) / (N - 1);
  return one(std::move(Out));
}

std::vector<Value> bDiag(Context &, Args A, size_t) {
  Value V = asNumeric(*A[0]);
  if (V.isVector()) {
    size_t N = V.numel();
    Value Out = Value::zeros(N, N, V.isComplex() ? MClass::Complex : V.mclass());
    for (size_t I = 0; I != N; ++I) {
      Out.reRef(I * N + I) = V.re(I);
      if (V.isComplex())
        Out.imRef(I * N + I) = V.im(I);
    }
    return one(std::move(Out));
  }
  size_t N = std::min(V.rows(), V.cols());
  Value Out = Value::zeros(N, N ? 1 : 0,
                           V.isComplex() ? MClass::Complex : V.mclass());
  for (size_t I = 0; I != N; ++I) {
    Out.reRef(I) = V.at(I, I);
    if (V.isComplex())
      Out.imRef(I) = V.atIm(I, I);
  }
  return one(std::move(Out));
}

std::vector<Value> bTrace(Context &, Args A, size_t) {
  const Value &V = *A[0];
  double Sum = 0, SumIm = 0;
  for (size_t I = 0, E = std::min(V.rows(), V.cols()); I != E; ++I) {
    Sum += V.at(I, I);
    SumIm += V.atIm(I, I);
  }
  if (SumIm != 0)
    return one(Value::complexScalar(Sum, SumIm));
  return one(Value::scalar(Sum));
}

//===----------------------------------------------------------------------===//
// Linear algebra builtins
//===----------------------------------------------------------------------===//

std::vector<Value> bEig(Context &, Args A, size_t NumOuts) {
  Value V = asNumeric(*A[0]);
  if (V.isComplex())
    throw MatlabError("complex eig is not supported in this subset");
  if (NumOuts >= 2) {
    Value Vectors;
    Value Eigs = linalg::symEig(V, &Vectors);
    // [V, D] = eig(A): D is the diagonal eigenvalue matrix.
    size_t N = Eigs.numel();
    Value D = Value::zeros(N, N);
    for (size_t I = 0; I != N; ++I)
      D.reRef(I * N + I) = Eigs.re(I);
    std::vector<Value> Out;
    Out.push_back(std::move(Vectors));
    Out.push_back(std::move(D));
    return Out;
  }
  return one(linalg::symEig(V));
}

std::vector<Value> bChol(Context &, Args A, size_t) {
  return one(linalg::cholesky(asNumeric(*A[0])));
}

std::vector<Value> bInv(Context &, Args A, size_t) {
  return one(linalg::inverse(asNumeric(*A[0])));
}

std::vector<Value> bDet(Context &, Args A, size_t) {
  return one(Value::scalar(linalg::determinant(asNumeric(*A[0]))));
}

//===----------------------------------------------------------------------===//
// Constants
//===----------------------------------------------------------------------===//

std::vector<Value> bPi(Context &, Args, size_t) {
  return one(Value::scalar(3.14159265358979323846));
}
std::vector<Value> bTrue(Context &, Args, size_t) {
  return one(Value::boolScalar(true));
}
std::vector<Value> bFalse(Context &, Args, size_t) {
  return one(Value::boolScalar(false));
}
std::vector<Value> bInf(Context &, Args, size_t) {
  return one(Value::scalar(std::numeric_limits<double>::infinity()));
}
std::vector<Value> bNan(Context &, Args, size_t) {
  return one(Value::scalar(std::numeric_limits<double>::quiet_NaN()));
}
std::vector<Value> bEps(Context &, Args, size_t) {
  return one(Value::scalar(std::numeric_limits<double>::epsilon()));
}
std::vector<Value> bImagUnit(Context &, Args, size_t) {
  return one(Value::complexScalar(0.0, 1.0));
}

//===----------------------------------------------------------------------===//
// I/O and diagnostics
//===----------------------------------------------------------------------===//

std::vector<Value> bDisp(Context &Ctx, Args A, size_t) {
  const Value &V = *A[0];
  if (V.isString())
    Ctx.print(V.stringValue() + "\n");
  else {
    std::string S = rt::displayValue(V, "");
    // Strip the " =" prefix displayValue adds.
    Ctx.print(S.substr(S.find('=') + 2));
  }
  return {};
}

/// Formats printf-style with MATLAB conventions: the format cycles over the
/// remaining arguments; matrices feed their elements one at a time.
std::string formatPrintf(const std::string &Fmt, Args A) {
  // Flatten arguments into a stream of scalars/strings.
  struct Item {
    bool IsString;
    double Num;
    std::string Str;
  };
  std::vector<Item> Items;
  for (const Value *V : A) {
    if (V->isString()) {
      Items.push_back({true, 0, V->stringValue()});
      continue;
    }
    for (size_t I = 0, E = V->numel(); I != E; ++I)
      Items.push_back({false, V->re(I), {}});
  }

  std::string Out;
  size_t Next = 0;
  do {
    for (size_t I = 0; I != Fmt.size(); ++I) {
      char Ch = Fmt[I];
      if (Ch == '\\' && I + 1 < Fmt.size()) {
        char Esc = Fmt[++I];
        Out += Esc == 'n' ? '\n' : Esc == 't' ? '\t' : Esc;
        continue;
      }
      if (Ch != '%') {
        Out += Ch;
        continue;
      }
      if (I + 1 < Fmt.size() && Fmt[I + 1] == '%') {
        Out += '%';
        ++I;
        continue;
      }
      // Scan the conversion spec.
      size_t SpecEnd = I + 1;
      while (SpecEnd < Fmt.size() &&
             std::string("0123456789.+- #").find(Fmt[SpecEnd]) !=
                 std::string::npos)
        ++SpecEnd;
      if (SpecEnd >= Fmt.size())
        throw MatlabError("invalid format string");
      char Conv = Fmt[SpecEnd];
      std::string Spec = Fmt.substr(I, SpecEnd - I + 1);
      I = SpecEnd;
      if (Next >= Items.size()) {
        // Not enough arguments: MATLAB stops at the last complete pass.
        return Out;
      }
      const Item &It = Items[Next++];
      if (Conv == 's') {
        Out += format(Spec.c_str(), It.IsString ? It.Str.c_str() : "");
      } else if (Conv == 'd' || Conv == 'i') {
        Spec.back() = 'd';
        Spec.insert(Spec.size() - 1, "ll");
        Out += format(Spec.c_str(), static_cast<long long>(It.Num));
      } else if (Conv == 'f' || Conv == 'g' || Conv == 'e' || Conv == 'E' ||
                 Conv == 'G') {
        Out += format(Spec.c_str(), It.Num);
      } else {
        throw MatlabError(format("unsupported conversion '%%%c'", Conv));
      }
    }
  } while (Next < Items.size() && Fmt.find('%') != std::string::npos);
  return Out;
}

std::vector<Value> bFprintf(Context &Ctx, Args A, size_t) {
  if (A.empty() || !A[0]->isString())
    throw MatlabError("fprintf requires a format string");
  Ctx.print(formatPrintf(A[0]->stringValue(), A.subspan(1)));
  return {};
}

std::vector<Value> bSprintf(Context &, Args A, size_t) {
  if (A.empty() || !A[0]->isString())
    throw MatlabError("sprintf requires a format string");
  return one(Value::str(formatPrintf(A[0]->stringValue(), A.subspan(1))));
}

std::vector<Value> bNum2str(Context &, Args A, size_t) {
  return one(Value::str(formatDouble(A[0]->scalarValue())));
}

std::vector<Value> bError(Context &, Args A, size_t) {
  std::string Msg = "error";
  if (!A.empty())
    Msg = A[0]->isString() ? A[0]->stringValue()
                           : formatDouble(A[0]->scalarValue());
  if (A.size() > 1)
    Msg = formatPrintf(Msg, A.subspan(1));
  throw MatlabError(Msg);
}

std::vector<Value> bWarning(Context &Ctx, Args A, size_t) {
  if (!A.empty() && A[0]->isString())
    Ctx.print("Warning: " + A[0]->stringValue() + "\n");
  return {};
}

std::vector<Value> bMod(Context &, Args A, size_t) {
  return one(elemwiseReal2(*A[0], *A[1], "mod", [](double X, double Y) {
    return evalScalarIntrinsic2(ScalarIntrinsic::Mod, X, Y);
  }));
}

std::vector<Value> bRem(Context &, Args A, size_t) {
  return one(elemwiseReal2(*A[0], *A[1], "rem", [](double X, double Y) {
    return evalScalarIntrinsic2(ScalarIntrinsic::Rem, X, Y);
  }));
}

std::vector<Value> bAtan2(Context &, Args A, size_t) {
  return one(elemwiseReal2(*A[0], *A[1], "atan2",
                           [](double X, double Y) { return std::atan2(X, Y); }));
}

//===----------------------------------------------------------------------===//
// Trigonometric / rounding maps
//===----------------------------------------------------------------------===//

#define MAJIC_MAP_COMPLEX(NAME, STDFN, ESCALATE)                               \
  std::vector<Value> NAME(Context &, Args A, size_t) {                         \
    return one(mapMath(                                                        \
        *A[0], [](double X) { return STDFN(X); },                              \
        [](Cplx X) { return STDFN(X); }, ESCALATE));                           \
  }

MAJIC_MAP_COMPLEX(bSin, std::sin, [](double) { return false; })
MAJIC_MAP_COMPLEX(bCos, std::cos, [](double) { return false; })
MAJIC_MAP_COMPLEX(bTan, std::tan, [](double) { return false; })
MAJIC_MAP_COMPLEX(bAsin, std::asin, [](double X) { return std::fabs(X) > 1; })
MAJIC_MAP_COMPLEX(bAcos, std::acos, [](double X) { return std::fabs(X) > 1; })
MAJIC_MAP_COMPLEX(bSinh, std::sinh, [](double) { return false; })
MAJIC_MAP_COMPLEX(bCosh, std::cosh, [](double) { return false; })
MAJIC_MAP_COMPLEX(bTanh, std::tanh, [](double) { return false; })
#undef MAJIC_MAP_COMPLEX

std::vector<Value> bAtan(Context &, Args A, size_t) {
  return one(mapReal(*A[0], "atan", [](double X) { return std::atan(X); }));
}

std::vector<Value> bLog2(Context &, Args A, size_t) {
  return one(mapMath(
      *A[0], [](double X) { return std::log2(X); },
      [](Cplx X) { return std::log(X) / std::log(2.0); },
      [](double X) { return X < 0; }));
}

std::vector<Value> bLog10(Context &, Args A, size_t) {
  return one(mapMath(
      *A[0], [](double X) { return std::log10(X); },
      [](Cplx X) { return std::log10(X); }, [](double X) { return X < 0; }));
}

std::vector<Value> bFloor(Context &, Args A, size_t) {
  return one(mapReal(*A[0], "floor", [](double X) { return std::floor(X); }));
}
std::vector<Value> bCeil(Context &, Args A, size_t) {
  return one(mapReal(*A[0], "ceil", [](double X) { return std::ceil(X); }));
}
std::vector<Value> bRound(Context &, Args A, size_t) {
  return one(mapReal(*A[0], "round", [](double X) { return std::round(X); }));
}
std::vector<Value> bFix(Context &, Args A, size_t) {
  return one(mapReal(*A[0], "fix", [](double X) { return std::trunc(X); }));
}
std::vector<Value> bSign(Context &, Args A, size_t) {
  return one(mapReal(*A[0], "sign", [](double X) {
    return X > 0 ? 1.0 : X < 0 ? -1.0 : 0.0;
  }));
}

} // namespace

//===----------------------------------------------------------------------===//
// Table construction
//===----------------------------------------------------------------------===//

BuiltinTable::BuiltinTable() {
  auto Add = [this](const char *Name, int MinA, int MaxA, int MaxO,
                    std::vector<Value> (*Impl)(Context &, Args, size_t),
                    ScalarIntrinsic Intr = ScalarIntrinsic::None,
                    bool Effects = false) {
    Defs.push_back({Name, MinA, MaxA, MaxO, Impl, Intr, Effects});
  };

  // Creators.
  Add("zeros", 0, 2, 1, bZeros);
  Add("ones", 0, 2, 1, bOnes);
  Add("eye", 0, 2, 1, bEye);
  Add("rand", 0, 2, 1, bRand, ScalarIntrinsic::None, /*Effects=*/true);
  Add("linspace", 2, 3, 1, bLinspace);

  // Shape queries.
  Add("size", 1, 2, 2, bSize);
  Add("length", 1, 1, 1, bLength);
  Add("numel", 1, 1, 1, bNumel);
  Add("isempty", 1, 1, 1, bIsempty);
  Add("isreal", 1, 1, 1, bIsreal);
  Add("isscalar", 1, 1, 1, bIsscalar);

  // Element-wise math. Where a ScalarIntrinsic exists, the code generator
  // can inline the call on scalar real arguments.
  Add("abs", 1, 1, 1, bAbs, ScalarIntrinsic::Abs);
  Add("sqrt", 1, 1, 1, bSqrt, ScalarIntrinsic::Sqrt);
  Add("exp", 1, 1, 1, bExp, ScalarIntrinsic::Exp);
  Add("log", 1, 1, 1, bLog, ScalarIntrinsic::Log);
  Add("real", 1, 1, 1, bReal);
  Add("imag", 1, 1, 1, bImag);
  Add("conj", 1, 1, 1, bConj);
  Add("angle", 1, 1, 1, bAngle);
  Add("mod", 2, 2, 1, bMod, ScalarIntrinsic::Mod);
  Add("rem", 2, 2, 1, bRem, ScalarIntrinsic::Rem);
  Add("atan2", 2, 2, 1, bAtan2, ScalarIntrinsic::Atan2);
  Add("sin", 1, 1, 1, bSin, ScalarIntrinsic::Sin);
  Add("cos", 1, 1, 1, bCos, ScalarIntrinsic::Cos);
  Add("tan", 1, 1, 1, bTan, ScalarIntrinsic::Tan);
  Add("asin", 1, 1, 1, bAsin, ScalarIntrinsic::Asin);
  Add("acos", 1, 1, 1, bAcos, ScalarIntrinsic::Acos);
  Add("atan", 1, 1, 1, bAtan, ScalarIntrinsic::Atan);
  Add("sinh", 1, 1, 1, bSinh, ScalarIntrinsic::Sinh);
  Add("cosh", 1, 1, 1, bCosh, ScalarIntrinsic::Cosh);
  Add("tanh", 1, 1, 1, bTanh, ScalarIntrinsic::Tanh);
  Add("log2", 1, 1, 1, bLog2, ScalarIntrinsic::Log2);
  Add("log10", 1, 1, 1, bLog10, ScalarIntrinsic::Log10);
  Add("floor", 1, 1, 1, bFloor, ScalarIntrinsic::Floor);
  Add("ceil", 1, 1, 1, bCeil, ScalarIntrinsic::Ceil);
  Add("round", 1, 1, 1, bRound, ScalarIntrinsic::Round);
  Add("fix", 1, 1, 1, bFix, ScalarIntrinsic::Fix);
  Add("sign", 1, 1, 1, bSign, ScalarIntrinsic::Sign);

  // Reductions and search.
  Add("sum", 1, 1, 1, bSum);
  Add("prod", 1, 1, 1, bProd);
  Add("mean", 1, 1, 1, bMean);
  Add("max", 1, 2, 2, bMax, ScalarIntrinsic::Max2);
  Add("min", 1, 2, 2, bMin, ScalarIntrinsic::Min2);
  Add("norm", 1, 2, 1, bNorm);
  Add("dot", 2, 2, 1, bDot);
  Add("find", 1, 1, 1, bFind);
  Add("any", 1, 1, 1, bAny);
  Add("all", 1, 1, 1, bAll);
  Add("sort", 1, 1, 2, bSort);
  Add("diag", 1, 1, 1, bDiag);
  Add("trace", 1, 1, 1, bTrace);

  // Linear algebra.
  Add("eig", 1, 1, 2, bEig);
  Add("chol", 1, 1, 1, bChol);
  Add("inv", 1, 1, 1, bInv);
  Add("det", 1, 1, 1, bDet);

  // Constants.
  Add("pi", 0, 0, 1, bPi);
  Add("true", 0, 0, 1, bTrue);
  Add("false", 0, 0, 1, bFalse);
  Add("Inf", 0, 0, 1, bInf);
  Add("inf", 0, 0, 1, bInf);
  Add("NaN", 0, 0, 1, bNan);
  Add("nan", 0, 0, 1, bNan);
  Add("eps", 0, 0, 1, bEps);
  Add("i", 0, 0, 1, bImagUnit);
  Add("j", 0, 0, 1, bImagUnit);

  // I/O and diagnostics.
  Add("disp", 1, 1, 0, bDisp, ScalarIntrinsic::None, true);
  Add("fprintf", 1, -1, 0, bFprintf, ScalarIntrinsic::None, true);
  Add("sprintf", 1, -1, 1, bSprintf);
  Add("num2str", 1, 1, 1, bNum2str);
  Add("error", 0, -1, 0, bError, ScalarIntrinsic::None, true);
  Add("warning", 0, -1, 0, bWarning, ScalarIntrinsic::None, true);

  std::sort(Defs.begin(), Defs.end(),
            [](const BuiltinDef &A, const BuiltinDef &B) {
              return A.Name < B.Name;
            });
}

const BuiltinTable &BuiltinTable::instance() {
  static BuiltinTable Table;
  return Table;
}

const BuiltinDef *BuiltinTable::lookup(const std::string &Name) const {
  auto It = std::lower_bound(Defs.begin(), Defs.end(), Name,
                             [](const BuiltinDef &D, const std::string &N) {
                               return D.Name < N;
                             });
  if (It == Defs.end() || It->Name != Name)
    return nullptr;
  return &*It;
}

std::vector<Value> BuiltinTable::call(const BuiltinDef &Def, Context &Ctx,
                                      Args ArgsIn, size_t NumOuts) {
  int N = static_cast<int>(ArgsIn.size());
  if (N < Def.MinArgs || (Def.MaxArgs >= 0 && N > Def.MaxArgs))
    throw MatlabError(format("wrong number of arguments to builtin '%s'",
                             Def.Name.c_str()));
  return Def.Impl(Ctx, ArgsIn, NumOuts);
}
