//===- runtime/Blas.cpp - Exact-FP vector kernels --------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// This TU is built WITHOUT extra architecture flags (see
// src/runtime/CMakeLists.txt): the kernels here must round every multiply
// and add separately, because the VM's fused ops are checked bit-for-bit
// against the interpreter's unfused element-wise sequences. The blocked
// matrix kernels, where FMA is safe, live in BlasKernels.cpp.
//
//===----------------------------------------------------------------------===//

#include "runtime/Blas.h"

#include <cmath>

using namespace majic;

double blas::ddot(size_t N, const double *X, const double *Y) {
  // Four-lane unroll with a fixed combination order: the result is a
  // deterministic function of the inputs (no vectorization-dependent
  // reassociation), just not the same order as the seed's single chain.
  double S0 = 0, S1 = 0, S2 = 0, S3 = 0;
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    S0 += X[I] * Y[I];
    S1 += X[I + 1] * Y[I + 1];
    S2 += X[I + 2] * Y[I + 2];
    S3 += X[I + 3] * Y[I + 3];
  }
  double Sum = (S0 + S1) + (S2 + S3);
  for (; I != N; ++I)
    Sum += X[I] * Y[I];
  return Sum;
}

void blas::daxpy(size_t N, double A, const double *X, double *Y) {
  for (size_t I = 0; I != N; ++I)
    Y[I] += A * X[I];
}

void blas::daxpyz(size_t N, double A, const double *X, const double *Y,
                  double *Z) {
  for (size_t I = 0; I != N; ++I)
    Z[I] = A * X[I] + Y[I];
}

void blas::dscal(size_t N, double A, double *X) {
  for (size_t I = 0; I != N; ++I)
    X[I] *= A;
}

void blas::detail::naiveDgemv(size_t M, size_t N, double Alpha,
                              const double *A, const double *X, double Beta,
                              double *Y) {
  if (Beta == 0.0) {
    for (size_t I = 0; I != M; ++I)
      Y[I] = 0.0;
  } else if (Beta != 1.0) {
    dscal(M, Beta, Y);
  }
  // Column-major traversal: accumulate one column at a time.
  for (size_t J = 0; J != N; ++J) {
    double Scale = Alpha * X[J];
    if (Scale == 0.0)
      continue;
    const double *Col = A + J * M;
    for (size_t I = 0; I != M; ++I)
      Y[I] += Scale * Col[I];
  }
}

void blas::detail::naiveDgemvT(size_t M, size_t N, double Alpha,
                               const double *A, const double *X, double Beta,
                               double *Y) {
  // naiveDgemv over the transposed copy, four outputs (columns of A) at a
  // time: each output's chain sees the same scales, zero-skips and
  // roundings in the same order, and the four chains hide each other's add
  // latency (2.5x faster than one chain at a time at 120x120).
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    const double *C0 = A + I * M, *C1 = C0 + M, *C2 = C1 + M, *C3 = C2 + M;
    double Y0 = betaStart(Beta, Y, I), Y1 = betaStart(Beta, Y, I + 1);
    double Y2 = betaStart(Beta, Y, I + 2), Y3 = betaStart(Beta, Y, I + 3);
    for (size_t J = 0; J != M; ++J) {
      double Scale = Alpha * X[J];
      if (Scale == 0.0)
        continue;
      Y0 += Scale * C0[J];
      Y1 += Scale * C1[J];
      Y2 += Scale * C2[J];
      Y3 += Scale * C3[J];
    }
    Y[I] = Y0;
    Y[I + 1] = Y1;
    Y[I + 2] = Y2;
    Y[I + 3] = Y3;
  }
  for (; I != N; ++I) {
    const double *Col = A + I * M;
    double Acc = betaStart(Beta, Y, I);
    for (size_t J = 0; J != M; ++J) {
      double Scale = Alpha * X[J];
      if (Scale == 0.0)
        continue;
      Acc += Scale * Col[J];
    }
    Y[I] = Acc;
  }
}

void blas::detail::naiveDgemm(size_t M, size_t N, size_t K, double Alpha,
                              const double *A, const double *B, double Beta,
                              double *C) {
  for (size_t J = 0; J != N; ++J) {
    double *CCol = C + J * M;
    if (Beta == 0.0) {
      for (size_t I = 0; I != M; ++I)
        CCol[I] = 0.0;
    } else if (Beta != 1.0) {
      dscal(M, Beta, CCol);
    }
    const double *BCol = B + J * K;
    for (size_t P = 0; P != K; ++P) {
      double Scale = Alpha * BCol[P];
      if (Scale == 0.0)
        continue;
      const double *ACol = A + P * M;
      for (size_t I = 0; I != M; ++I)
        CCol[I] += Scale * ACol[I];
    }
  }
}

void blas::detail::naiveDgemmTA(size_t M, size_t N, size_t K, double Alpha,
                                const double *A, const double *B, double Beta,
                                double *C) {
  // naiveDgemm builds each output column as a dgemv-style column walk;
  // over the transposed copy that walk is naiveDgemvT.
  for (size_t J = 0; J != N; ++J)
    naiveDgemvT(K, M, Alpha, A, B + J * K, Beta, C + J * M);
}

double blas::dnrm2(size_t N, const double *X) {
  // Scaled accumulation avoids overflow for large magnitudes.
  double Scale = 0.0, SumSq = 1.0;
  for (size_t I = 0; I != N; ++I) {
    double AbsX = std::fabs(X[I]);
    if (AbsX == 0.0)
      continue;
    if (Scale < AbsX) {
      double Ratio = Scale / AbsX;
      SumSq = 1.0 + SumSq * Ratio * Ratio;
      Scale = AbsX;
    } else {
      double Ratio = AbsX / Scale;
      SumSq += Ratio * Ratio;
    }
  }
  return Scale * std::sqrt(SumSq);
}
