//===- runtime/LinAlg.cpp - Dense linear algebra ---------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/LinAlg.h"

#include "runtime/Blas.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

using namespace majic;

namespace {

/// The pivot magnitude below which a system counts as singular.
constexpr double kSingularPivot = 1e-300;

/// In-place LU factorization with partial pivoting over a copy of A.
/// Returns false when a pivot underflows (singular matrix).
/// Perm[i] records row swaps; NumSwaps counts them (for determinants).
bool luFactor(std::vector<double> &LU, size_t N, std::vector<size_t> &Perm,
              unsigned &NumSwaps) {
  Perm.resize(N);
  for (size_t I = 0; I != N; ++I)
    Perm[I] = I;
  NumSwaps = 0;

  for (size_t K = 0; K != N; ++K) {
    // Partial pivoting: find the largest magnitude in column K at/below K.
    size_t Pivot = K;
    double Best = std::fabs(LU[K * N + K]);
    for (size_t I = K + 1; I != N; ++I) {
      double Mag = std::fabs(LU[K * N + I]);
      if (Mag > Best) {
        Best = Mag;
        Pivot = I;
      }
    }
    if (Best < kSingularPivot)
      return false;
    if (Pivot != K) {
      for (size_t J = 0; J != N; ++J)
        std::swap(LU[J * N + K], LU[J * N + Pivot]);
      std::swap(Perm[K], Perm[Pivot]);
      ++NumSwaps;
    }
    double Diag = LU[K * N + K];
    // The multiplier column LU[K*N + K+1 .. K*N + N) is contiguous in
    // column-major storage.
    double *Mult = LU.data() + K * N;
    for (size_t I = K + 1; I != N; ++I)
      Mult[I] /= Diag;
    // Rank-1 update of the trailing block, one contiguous column at a time
    // (the seed iterated rows here, striding by N on every access). Each
    // element still receives the single update Mult[I] * LU[J*N+K], so the
    // factorization is unchanged; columns are independent, so the update
    // parallelizes without affecting results.
    size_t Rem = N - K - 1;
    if (Rem != 0)
      par::parallelFor(Rem, std::max<size_t>(1, 32768 / (Rem + 1)),
                       [&](size_t J0, size_t J1) {
                         for (size_t J = K + 1 + J0; J != K + 1 + J1; ++J) {
                           double Ujk = LU[J * N + K];
                           if (Ujk == 0.0)
                             continue;
                           blas::daxpy(Rem, -Ujk, Mult + K + 1,
                                       LU.data() + J * N + K + 1);
                         }
                       });
  }
  return true;
}

/// True when every one of \p P[0..N) is +0 or -0 (a NaN is nonzero): the
/// bits without the sign are all clear. Integer ORs without an early exit,
/// so the loop vectorizes.
bool allZero(const double *P, size_t N) {
  uint64_t Bits = 0;
  for (size_t I = 0; I != N; ++I)
    Bits |= std::bit_cast<uint64_t>(P[I]) << 1;
  return Bits == 0;
}

/// The result of a structured solve: A square and real, B with A's rows.
/// Throws luSolve's singular error when a diagonal entry is too small.
Value structuredResult(const Value &A, const Value &B) {
  assert(A.rows() == A.cols() && A.rows() == B.rows() && "bad solve shape");
  size_t N = A.rows();
  for (size_t I = 0; I != N; ++I)
    if (std::fabs(A.reData()[I * N + I]) < kSingularPivot)
      throw MatlabError("matrix is singular to working precision");
  return Value::zeros(N, B.cols());
}

/// What solve checks a square matrix for before it factors it. A diagonal
/// matrix is also triangular; structureOf reports Diagonal.
enum class Structure : uint8_t { General, Lower, Upper, Diagonal };

Structure structureOf(const Value &A) {
  size_t N = A.rows();
  const double *D = A.reData();
  // Column J holds rows 0..J-1 above its diagonal and J+1..N-1 below.
  bool Lower = true, Upper = true;
  for (size_t J = 0; J != N && Lower; ++J)
    Lower = allZero(D + J * N, J);
  for (size_t J = 0; J != N && Upper; ++J)
    Upper = allZero(D + J * N + J + 1, N - J - 1);
  if (Lower && Upper)
    return Structure::Diagonal;
  return Lower ? Structure::Lower : Upper ? Structure::Upper : Structure::General;
}

/// Forward (\p Lower) or back substitution for a triangular A.
Value triangularSolve(const Value &A, const Value &B, bool Lower) {
  Value X = structuredResult(A, B);
  size_t N = A.rows();
  const double *AD = A.reData();
  for (size_t R = 0; R != B.cols(); ++R) {
    double *Col = X.reData() + R * N;
    std::copy(B.reData() + R * N, B.reData() + (R + 1) * N, Col);
    // Column-oriented substitution: once x(j) is known, subtract its
    // column of A from the rows still to solve (contiguous reads).
    for (size_t K = 0; K != N; ++K) {
      size_t J = Lower ? K : N - 1 - K;
      double Xj = Col[J] / AD[J * N + J];
      Col[J] = Xj;
      if (Lower)
        blas::daxpy(N - J - 1, -Xj, AD + J * N + J + 1, Col + J + 1);
      else
        blas::daxpy(J, -Xj, AD + J * N, Col);
    }
  }
  return X;
}

/// X(i, :) = B(i, :) / A(i, i) for a diagonal A.
Value diagonalSolve(const Value &A, const Value &B) {
  Value X = structuredResult(A, B);
  size_t N = A.rows();
  for (size_t R = 0; R != B.cols(); ++R)
    for (size_t I = 0; I != N; ++I)
      X.reData()[R * N + I] = B.reData()[R * N + I] / A.reData()[I * N + I];
  return X;
}

} // namespace

Value linalg::solve(const Value &A, const Value &B) {
  switch (structureOf(A)) {
  case Structure::Diagonal:
    return diagonalSolve(A, B);
  case Structure::Lower:
    return triangularSolve(A, B, /*Lower=*/true);
  case Structure::Upper:
    return triangularSolve(A, B, /*Lower=*/false);
  case Structure::General:
    break;
  }
  return luSolve(A, B);
}

Value linalg::luSolve(const Value &A, const Value &B) {
  assert(A.rows() == A.cols() && A.rows() == B.rows() && "bad solve shape");
  size_t N = A.rows(), NRhs = B.cols();
  std::vector<double> LU(A.reData(), A.reData() + N * N);
  std::vector<size_t> Perm;
  unsigned NumSwaps;
  if (!luFactor(LU, N, Perm, NumSwaps))
    throw MatlabError("matrix is singular to working precision");

  Value X = Value::zeros(N, NRhs);
  const double *BD = B.reData();
  double *XD = X.reData();
  // Right-hand sides are independent (inv() solves N of them at once), so
  // each thread takes a contiguous block of columns; per-column arithmetic
  // is unchanged from the serial code.
  par::parallelFor(
      NRhs, std::max<size_t>(1, 32768 / (N * N + 1)),
      [&](size_t R0, size_t R1) {
        for (size_t R = R0; R != R1; ++R) {
          double *Col = XD + R * N;
          // Apply the row permutation to the right-hand side.
          for (size_t I = 0; I != N; ++I)
            Col[I] = BD[R * N + Perm[I]];
          // Forward substitution (L has unit diagonal).
          for (size_t I = 1; I != N; ++I) {
            double Sum = Col[I];
            for (size_t J = 0; J != I; ++J)
              Sum -= LU[J * N + I] * Col[J];
            Col[I] = Sum;
          }
          // Backward substitution.
          for (size_t IPlus = N; IPlus != 0; --IPlus) {
            size_t I = IPlus - 1;
            double Sum = Col[I];
            for (size_t J = I + 1; J != N; ++J)
              Sum -= LU[J * N + I] * Col[J];
            Col[I] = Sum / LU[I * N + I];
          }
        }
      });
  return X;
}

Value linalg::cholesky(const Value &A) {
  if (A.rows() != A.cols())
    throw MatlabError("chol requires a square matrix");
  size_t N = A.rows();
  Value R = Value::zeros(N, N);
  double *RD = R.reData();
  const double *AD = A.reData();
  // Column-major upper Cholesky: R(i,j) at RD[j*N+i], i <= j.
  for (size_t J = 0; J != N; ++J) {
    for (size_t I = 0; I <= J; ++I) {
      double Sum = AD[J * N + I];
      for (size_t K = 0; K != I; ++K)
        Sum -= RD[I * N + K] * RD[J * N + K];
      if (I == J) {
        if (Sum <= 0.0)
          throw MatlabError("matrix must be positive definite");
        RD[J * N + I] = std::sqrt(Sum);
      } else {
        RD[J * N + I] = Sum / RD[I * N + I];
      }
    }
  }
  return R;
}

Value linalg::symEig(const Value &A, Value *Vectors) {
  if (A.rows() != A.cols())
    throw MatlabError("eig requires a square matrix");
  size_t N = A.rows();
  // Verify (numerical) symmetry; the subset only supports symmetric eig.
  for (size_t I = 0; I != N; ++I)
    for (size_t J = I + 1; J != N; ++J)
      if (std::fabs(A.at(I, J) - A.at(J, I)) >
          1e-9 * (1.0 + std::fabs(A.at(I, J))))
        throw MatlabError("eig in this subset requires a symmetric matrix");

  std::vector<double> M(A.reData(), A.reData() + N * N);
  std::vector<double> V;
  if (Vectors) {
    V.assign(N * N, 0.0);
    for (size_t I = 0; I != N; ++I)
      V[I * N + I] = 1.0;
  }
  auto At = [&](size_t I, size_t J) -> double & { return M[J * N + I]; };

  // Cyclic Jacobi sweeps.
  for (unsigned Sweep = 0; Sweep != 64; ++Sweep) {
    double Off = 0;
    for (size_t I = 0; I != N; ++I)
      for (size_t J = I + 1; J != N; ++J)
        Off += At(I, J) * At(I, J);
    if (Off < 1e-24)
      break;
    for (size_t P = 0; P != N; ++P) {
      for (size_t Q = P + 1; Q != N; ++Q) {
        double Apq = At(P, Q);
        if (std::fabs(Apq) < 1e-300)
          continue;
        double Theta = (At(Q, Q) - At(P, P)) / (2.0 * Apq);
        double T = (Theta >= 0 ? 1.0 : -1.0) /
                   (std::fabs(Theta) + std::sqrt(Theta * Theta + 1.0));
        double C = 1.0 / std::sqrt(T * T + 1.0);
        double S = T * C;
        // Apply the rotation G(p,q,theta) on both sides.
        for (size_t K = 0; K != N; ++K) {
          double Akp = At(K, P), Akq = At(K, Q);
          At(K, P) = C * Akp - S * Akq;
          At(K, Q) = S * Akp + C * Akq;
        }
        for (size_t K = 0; K != N; ++K) {
          double Apk = At(P, K), Aqk = At(Q, K);
          At(P, K) = C * Apk - S * Aqk;
          At(Q, K) = S * Apk + C * Aqk;
        }
        if (Vectors) {
          for (size_t K = 0; K != N; ++K) {
            double Vkp = V[P * N + K], Vkq = V[Q * N + K];
            V[P * N + K] = C * Vkp - S * Vkq;
            V[Q * N + K] = S * Vkp + C * Vkq;
          }
        }
      }
    }
  }

  // Sort eigenvalues ascending, permuting vectors to match.
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(),
            [&](size_t X, size_t Y) { return At(X, X) < At(Y, Y); });

  Value Eig = Value::zeros(N, 1);
  for (size_t I = 0; I != N; ++I)
    Eig.reRef(I) = At(Order[I], Order[I]);
  if (Vectors) {
    *Vectors = Value::zeros(N, N);
    for (size_t I = 0; I != N; ++I)
      for (size_t K = 0; K != N; ++K)
        Vectors->reRef(I * N + K) = V[Order[I] * N + K];
  }
  return Eig;
}

Value linalg::inverse(const Value &A) {
  if (A.rows() != A.cols())
    throw MatlabError("inv requires a square matrix");
  size_t N = A.rows();
  Value Eye = Value::zeros(N, N);
  for (size_t I = 0; I != N; ++I)
    Eye.reRef(I * N + I) = 1.0;
  return luSolve(A, Eye);
}

double linalg::determinant(const Value &A) {
  if (A.rows() != A.cols())
    throw MatlabError("det requires a square matrix");
  size_t N = A.rows();
  std::vector<double> LU(A.reData(), A.reData() + N * N);
  std::vector<size_t> Perm;
  unsigned NumSwaps;
  if (!luFactor(LU, N, Perm, NumSwaps))
    return 0.0;
  double Det = NumSwaps % 2 ? -1.0 : 1.0;
  for (size_t I = 0; I != N; ++I)
    Det *= LU[I * N + I];
  return Det;
}
