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
#include <limits>
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

namespace {

/// The QL iterations one eigenvalue may take before eig gives up (EISPACK
/// tql2's limit).
constexpr unsigned kMaxQlIterations = 30;

/// sqrt(A^2 + B^2) without harmful over- or underflow: the plain formula
/// where the sum of squares is far inside the normal range, std::hypot
/// elsewhere. Every QL rotation waits for one, and std::hypot alone made
/// QL 1.6x slower at n = 33.
double pythag(double A, double B) {
  double S = A * A + B * B;
  if (S > 0x1p-1000 && S < 0x1p+1000)
    return std::sqrt(S);
  return std::hypot(A, B);
}

/// Reduces the symmetric N x N matrix held in the column-major array Z to
/// tridiagonal form by Householder similarity transformations (EISPACK
/// tred2). Only the lower triangle is read. On return D holds the diagonal
/// and E[1..N-1] the subdiagonal, E[0] = 0. With \p Accumulate, Z holds
/// the orthogonal Q with A = Q * T * Q'; otherwise Z is left as scratch.
/// Z(r, c) is Z[c * N + r], so every inner loop walks down a column.
void tridiagonalize(double *Z, size_t N, double *D, double *E,
                    bool Accumulate) {
  auto At = [&](size_t R, size_t C) -> double & { return Z[C * N + R]; };
  for (size_t J = 0; J != N; ++J)
    D[J] = At(N - 1, J);
  // Annihilate row I left of the subdiagonal, from the last row up.
  for (size_t I = N - 1; I != 0; --I) {
    // Scale the row to avoid under- and overflow.
    double Scale = 0, H = 0;
    for (size_t K = 0; K != I; ++K)
      Scale += std::fabs(D[K]);
    if (Scale == 0) {
      E[I] = D[I - 1];
      for (size_t J = 0; J != I; ++J) {
        D[J] = At(I - 1, J);
        At(I, J) = 0;
        At(J, I) = 0;
      }
      D[I] = 0;
      continue;
    }
    // The Householder vector u = D, with H = u' * u / 2.
    for (size_t K = 0; K != I; ++K) {
      D[K] /= Scale;
      H += D[K] * D[K];
    }
    double F = D[I - 1];
    double G = F > 0 ? -std::sqrt(H) : std::sqrt(H);
    E[I] = Scale * G;
    H -= F * G;
    D[I - 1] = F - G;
    // p = A * u / H into E, keeping u in column I for the accumulation.
    std::fill(E, E + I, 0.0);
    for (size_t J = 0; J != I; ++J) {
      const double *ColJ = Z + J * N;
      F = D[J];
      At(J, I) = F;
      G = E[J] + ColJ[J] * F;
      for (size_t K = J + 1; K != I; ++K) {
        G += ColJ[K] * D[K];
        E[K] += ColJ[K] * F;
      }
      E[J] = G;
    }
    F = 0;
    for (size_t J = 0; J != I; ++J) {
      E[J] /= H;
      F += E[J] * D[J];
    }
    // q = p - (u' * p / 2H) u, then A -= u * q' + q * u'.
    double HH = F / (H + H);
    for (size_t J = 0; J != I; ++J)
      E[J] -= HH * D[J];
    for (size_t J = 0; J != I; ++J) {
      double *ColJ = Z + J * N;
      F = D[J];
      G = E[J];
      for (size_t K = J; K != I; ++K)
        ColJ[K] -= F * E[K] + G * D[K];
      D[J] = At(I - 1, J);
      At(I, J) = 0;
    }
    D[I] = H;
  }

  if (!Accumulate) {
    for (size_t J = 0; J != N; ++J)
      D[J] = At(J, J);
    E[0] = 0;
    return;
  }
  // Form Q from the Householder vectors, stashing T's diagonal in row N-1.
  for (size_t I = 0; I + 1 < N; ++I) {
    At(N - 1, I) = At(I, I);
    At(I, I) = 1;
    double H = D[I + 1];
    double *U = Z + (I + 1) * N;
    if (H != 0) {
      for (size_t K = 0; K <= I; ++K)
        D[K] = U[K] / H;
      for (size_t J = 0; J <= I; ++J) {
        double *ColJ = Z + J * N;
        double G = 0;
        for (size_t K = 0; K <= I; ++K)
          G += U[K] * ColJ[K];
        for (size_t K = 0; K <= I; ++K)
          ColJ[K] -= G * D[K];
      }
    }
    std::fill(U, U + I + 1, 0.0);
  }
  for (size_t J = 0; J != N; ++J) {
    D[J] = At(N - 1, J);
    At(N - 1, J) = 0;
  }
  At(N - 1, N - 1) = 1;
  E[0] = 0;
}

/// Diagonalizes the symmetric tridiagonal matrix with diagonal D and
/// subdiagonal E[1..N-1] by QL with implicit shifts (EISPACK tql2), then
/// sorts the eigenvalues ascending in D. When \p Z is non-null its columns
/// are rotated along (turning tridiagonalize's Q into the eigenvectors) and
/// permuted with D. The eigenvalues never depend on Z. Throws a MatlabError
/// when an eigenvalue does not converge within kMaxQlIterations.
void tqlImplicit(double *D, double *E, double *Z, size_t N) {
  for (size_t I = 1; I < N; ++I)
    E[I - 1] = E[I];
  E[N - 1] = 0;
  const double Eps = std::numeric_limits<double>::epsilon();
  double Shift = 0, Tst1 = 0;
  for (size_t L = 0; L != N; ++L) {
    // Split off at the first negligible subdiagonal element at or past L.
    Tst1 = std::max(Tst1, std::fabs(D[L]) + std::fabs(E[L]));
    size_t M = L;
    while (M + 1 < N && std::fabs(E[M]) > Eps * Tst1)
      ++M;
    for (unsigned Iter = 0; M > L && std::fabs(E[L]) > Eps * Tst1; ++Iter) {
      if (Iter == kMaxQlIterations)
        throw MatlabError("eig did not converge");
      // The implicit (Wilkinson) shift from the leading 2 x 2 block.
      double G = D[L];
      double P = (D[L + 1] - G) / (2.0 * E[L]);
      double R = pythag(P, 1.0);
      if (P < 0)
        R = -R;
      D[L] = E[L] / (P + R);
      D[L + 1] = E[L] * (P + R);
      double DL1 = D[L + 1];
      double H = G - D[L];
      for (size_t I = L + 2; I < N; ++I)
        D[I] -= H;
      Shift += H;
      // One QL sweep of plane rotations from row M up to row L.
      P = D[M];
      double C = 1, C2 = 1, C3 = 1, S = 0, S2 = 0;
      double EL1 = E[L + 1];
      for (size_t I = M; I-- != L;) {
        C3 = C2;
        C2 = C;
        S2 = S;
        G = C * E[I];
        H = C * P;
        R = pythag(P, E[I]);
        E[I + 1] = S * R;
        S = E[I] / R;
        C = P / R;
        P = C * D[I] - S * G;
        D[I + 1] = H + S * (C * G + S * D[I]);
        if (Z) {
          double *Zi = Z + I * N, *Zi1 = Z + (I + 1) * N;
          for (size_t K = 0; K != N; ++K) {
            double Zk = Zi1[K];
            Zi1[K] = S * Zi[K] + C * Zk;
            Zi[K] = C * Zi[K] - S * Zk;
          }
        }
      }
      P = -S * S2 * C3 * EL1 * E[L] / DL1;
      E[L] = S * P;
      D[L] = C * P;
    }
    D[L] += Shift;
    E[L] = 0;
  }
  // Selection sort, ascending; the eigenvector columns follow.
  for (size_t I = 0; I + 1 < N; ++I) {
    size_t K = I;
    for (size_t J = I + 1; J != N; ++J)
      if (D[J] < D[K])
        K = J;
    if (K == I)
      continue;
    std::swap(D[I], D[K]);
    if (Z)
      std::swap_ranges(Z + I * N, Z + (I + 1) * N, Z + K * N);
  }
}

} // namespace

Value linalg::symEig(const Value &A, Value *Vectors) {
  if (A.rows() != A.cols())
    throw MatlabError("eig requires a square matrix");
  size_t N = A.rows();
  const double *AD = A.reData();
  double MaxAbs = 0;
  for (size_t I = 0; I != N * N; ++I) {
    if (!std::isfinite(AD[I]))
      throw MatlabError("Input to EIG must not contain NaN or Inf.");
    MaxAbs = std::max(MaxAbs, std::fabs(AD[I]));
  }
  // Verify (numerical) symmetry; the subset only supports symmetric eig.
  for (size_t I = 0; I != N; ++I)
    for (size_t J = I + 1; J != N; ++J)
      if (std::fabs(A.at(I, J) - A.at(J, I)) >
          1e-9 * (1.0 + std::fabs(A.at(I, J))))
        throw MatlabError("eig in this subset requires a symmetric matrix");

  // Entries far from 1 are scaled by a power of two, which is exact, so
  // that no square in the reduction or in QL overflows or underflows
  // (dsyev scales such matrices too).
  int Exp = 0;
  if (MaxAbs > 0x1p+480 || (MaxAbs != 0 && MaxAbs < 0x1p-480))
    std::frexp(MaxAbs, &Exp);
  std::vector<double> Z(AD, AD + N * N), D(N), E(N);
  if (Exp != 0)
    for (double &X : Z)
      X = std::ldexp(X, -Exp);
  if (N != 0) {
    tridiagonalize(Z.data(), N, D.data(), E.data(), Vectors != nullptr);
    tqlImplicit(D.data(), E.data(), Vectors ? Z.data() : nullptr, N);
  }

  Value Eig = Value::uninit(N, 1);
  for (size_t I = 0; I != N; ++I)
    Eig.reRef(I) = std::ldexp(D[I], Exp);
  if (Vectors) {
    *Vectors = Value::uninit(N, N);
    std::copy(Z.begin(), Z.end(), Vectors->reData());
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
