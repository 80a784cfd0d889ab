//===- runtime/BlasKernels.cpp - Blocked, threaded matrix kernels ----------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The cache-blocked dgemm, the unrolled dgemv, their twins that read A
// transposed (dgemmTA, dgemvT), and the split-plane zgemm.
// This TU is built with the host's full instruction set (-march=native when
// available, see src/runtime/CMakeLists.txt): FMA contraction is safe here
// because every consumer - interpreter, VM, builtins - reaches matrix
// products through these same entry points.
//
// dgemm follows the classic GotoBLAS/BLIS decomposition (compare the tiled
// kernels in the gigagrad related repo):
//
//   for Jc in steps of NC:                 // C column panel,  unit of
//     for Pc in steps of KC:               //   thread distribution
//       pack B[Pc:Pc+KC, Jc:Jc+NC]         // L2/L3-resident, NR-col slivers
//       for Ic in steps of MC:
//         pack A[Ic:Ic+MC, Pc:Pc+KC]       // L2-resident, MR-row slivers
//         for each MRxNR tile: microkernel // registers
//
// The microkernel keeps an MRxNR accumulator block in vector registers
// (GCC vector extensions, so the same source compiles to AVX-512, AVX, or
// SSE2 code) and both packing routines zero-pad partial slivers, so edge
// tiles run the full-speed kernel and the writeback just clips.
//
// Determinism: the parallel loop distributes fixed-width NC column panels;
// each output element is computed by exactly one panel task whose
// arithmetic does not depend on how panels are assigned to threads, so
// results are bit-identical for every ComputeThreads value.
//
//===----------------------------------------------------------------------===//

#include "runtime/Blas.h"

#include "support/Error.h"
#include "support/Parallel.h"
#include "support/ResourceGuard.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace majic;

namespace {

#if defined(__AVX512F__)
constexpr size_t VW = 8;
#elif defined(__AVX__)
constexpr size_t VW = 4;
#else
constexpr size_t VW = 2; // baseline x86-64 SSE2 / generic 128-bit
#endif
typedef double Vec __attribute__((vector_size(VW * sizeof(double))));

constexpr size_t MR = 2 * VW; // microtile rows: two vector registers
constexpr size_t NR = 6;      // microtile columns

/// Products below this M*N*K volume stay on the seed's naive kernel: the
/// blocked path's packing overhead dominates, and keeping the seed
/// arithmetic for small operands keeps golden-test output byte-identical.
constexpr size_t SmallProduct = 32768;

size_t envBlockSize(const char *Name) {
  const char *E = std::getenv(Name);
  if (!E)
    return 0;
  long V = std::strtol(E, nullptr, 10);
  return V > 0 ? static_cast<size_t>(V) : 0;
}

size_t roundDownTo(size_t V, size_t Unit) {
  return std::max(Unit, V - V % Unit);
}

/// Packs the Mc x Kc block of A (leading dimension Lda) into MR-row
/// slivers, column by column, zero-padding the last sliver to MR rows.
void packA(size_t Mc, size_t Kc, const double *A, size_t Lda, double *Buf) {
  for (size_t I0 = 0; I0 < Mc; I0 += MR) {
    size_t Mr = std::min(MR, Mc - I0);
    for (size_t P = 0; P != Kc; ++P) {
      const double *Col = A + P * Lda + I0;
      size_t I = 0;
      for (; I != Mr; ++I)
        *Buf++ = Col[I];
      for (; I != MR; ++I)
        *Buf++ = 0.0;
    }
  }
}

/// packA over a transposed source: element (I, P) of the block is
/// A[P + I * Lda]. The packed buffer is the one packA builds from the
/// transposed copy, so the microkernel computes identical tiles.
void packAT(size_t Mc, size_t Kc, const double *A, size_t Lda, double *Buf) {
  for (size_t I0 = 0; I0 < Mc; I0 += MR) {
    size_t Mr = std::min(MR, Mc - I0);
    for (size_t P = 0; P != Kc; ++P) {
      const double *Row = A + I0 * Lda + P;
      size_t I = 0;
      for (; I != Mr; ++I)
        *Buf++ = Row[I * Lda];
      for (; I != MR; ++I)
        *Buf++ = 0.0;
    }
  }
}

/// Packs the Kc x Nc block of B (leading dimension Ldb) into NR-column
/// slivers, row by row, zero-padding the last sliver to NR columns.
void packB(size_t Kc, size_t Nc, const double *B, size_t Ldb, double *Buf) {
  for (size_t J0 = 0; J0 < Nc; J0 += NR) {
    size_t Nr = std::min(NR, Nc - J0);
    for (size_t P = 0; P != Kc; ++P) {
      size_t J = 0;
      for (; J != Nr; ++J)
        *Buf++ = B[(J0 + J) * Ldb + P];
      for (; J != NR; ++J)
        *Buf++ = 0.0;
    }
  }
}

/// MRxNR microkernel: AB = sum over Kc of A-sliver column x B-sliver row.
/// A and B point at packed slivers; AB is a dense MRxNR column-major tile.
inline void micro(size_t Kc, const double *__restrict A,
                  const double *__restrict B, double *__restrict AB) {
  Vec Acc[2][NR];
  for (size_t J = 0; J != NR; ++J) {
    Acc[0][J] = Vec{};
    Acc[1][J] = Vec{};
  }
  for (size_t P = 0; P != Kc; ++P) {
    Vec A0, A1;
    std::memcpy(&A0, A + P * MR, sizeof(Vec));
    std::memcpy(&A1, A + P * MR + VW, sizeof(Vec));
    const double *b = B + P * NR;
    for (size_t J = 0; J != NR; ++J) {
      Vec Bj = Vec{} + b[J]; // broadcast
      Acc[0][J] += A0 * Bj;
      Acc[1][J] += A1 * Bj;
    }
  }
  for (size_t J = 0; J != NR; ++J) {
    std::memcpy(AB + J * MR, &Acc[0][J], sizeof(Vec));
    std::memcpy(AB + J * MR + VW, &Acc[1][J], sizeof(Vec));
  }
}

/// One NC-wide column panel of the blocked product: C[:, Jc:Jc+Nc].
/// ABuf/BBuf are caller-provided packing buffers (reused across panels).
/// With \p TransA, A is stored KxM and packed from its transpose.
void gemmPanel(bool TransA, size_t M, size_t K, double Alpha, const double *A,
               const double *B, double Beta, double *C, size_t LdC,
               size_t Nc, const blas::GemmBlocking &BK, double *ABuf,
               double *BBuf) {
  alignas(64) double AB[MR * NR];
  for (size_t Pc = 0; Pc < K; Pc += BK.KC) {
    size_t Kc = std::min(BK.KC, K - Pc);
    // The first K-block applies Beta to C; later blocks accumulate.
    bool First = Pc == 0;
    packB(Kc, Nc, B + Pc, K, BBuf);
    for (size_t Ic = 0; Ic < M; Ic += BK.MC) {
      size_t Mc = std::min(BK.MC, M - Ic);
      if (TransA)
        packAT(Mc, Kc, A + Ic * K + Pc, K, ABuf);
      else
        packA(Mc, Kc, A + Pc * M + Ic, M, ABuf);
      for (size_t Jr = 0; Jr < Nc; Jr += NR) {
        size_t Nr = std::min(NR, Nc - Jr);
        for (size_t Ir = 0; Ir < Mc; Ir += MR) {
          size_t Mr = std::min(MR, Mc - Ir);
          micro(Kc, ABuf + (Ir / MR) * (MR * Kc), BBuf + (Jr / NR) * (NR * Kc),
                AB);
          double *CTile = C + Jr * LdC + Ic + Ir;
          for (size_t J = 0; J != Nr; ++J)
            for (size_t I = 0; I != Mr; ++I) {
              double V = Alpha * AB[J * MR + I];
              double *P = CTile + J * LdC + I;
              if (First)
                *P = (Beta == 0.0 ? 0.0 : Beta * *P) + V;
              else
                *P += V;
            }
        }
      }
    }
  }
}

/// The unrolled dgemv's two steps, spelled out so that every kernel rounds
/// them alike: with hardware FMA, exactly the contraction the compiler
/// chose for the original expressions `Y += S0*C0 + S1*C1 + S2*C2 +
/// S3*C3` and `Y += S*C` (the product S1*C1, three FMAs, then the add;
/// one FMA);
/// without it, every operation rounds separately. Left to the compiler,
/// the same expression in a differently shaped loop may vectorize and
/// contract differently, and dgemvT would no longer match dgemv.
inline double quadStep(double Y, double S0, double C0, double S1, double C1,
                       double S2, double C2, double S3, double C3) {
#ifdef __FP_FAST_FMA
  double T = S1 * C1;
  T = std::fma(S0, C0, T);
  T = std::fma(S2, C2, T);
  T = std::fma(S3, C3, T);
  return Y + T;
#else
  return Y + (S0 * C0 + S1 * C1 + S2 * C2 + S3 * C3);
#endif
}

inline double singleStep(double Y, double S, double C) {
#ifdef __FP_FAST_FMA
  return std::fma(S, C, Y);
#else
  return Y + S * C;
#endif
}

using blas::detail::betaStart;

/// dgemv over the row range [R0, R1): four-column unrolled, column-major
/// friendly. Per-element arithmetic depends only on the row index, so the
/// threaded driver below is bit-identical for any chunking.
void gemvRows(size_t M, size_t N, double Alpha, const double *A,
              const double *X, double Beta, double *Y, size_t R0, size_t R1) {
  for (size_t I = R0; I != R1; ++I)
    Y[I] = betaStart(Beta, Y, I);
  size_t J = 0;
  for (; J + 4 <= N; J += 4) {
    double S0 = Alpha * X[J], S1 = Alpha * X[J + 1];
    double S2 = Alpha * X[J + 2], S3 = Alpha * X[J + 3];
    const double *C0 = A + J * M, *C1 = C0 + M, *C2 = C1 + M, *C3 = C2 + M;
    for (size_t I = R0; I != R1; ++I)
      Y[I] = quadStep(Y[I], S0, C0[I], S1, C1[I], S2, C2[I], S3, C3[I]);
  }
  for (; J != N; ++J) {
    double S = Alpha * X[J];
    const double *Col = A + J * M;
    for (size_t I = R0; I != R1; ++I)
      Y[I] = singleStep(Y[I], S, Col[I]);
  }
}

/// gemvRows over the transposed copy of A (A is MxN, outputs [R0, R1) of
/// N): each output takes gemvRows' steps for its row in the same order,
/// four outputs at a time so their chains overlap (1.4x faster than one
/// chain at a time at 512x512).
void gemvRowsT(size_t M, double Alpha, const double *A, const double *X,
               double Beta, double *Y, size_t R0, size_t R1) {
  size_t I = R0;
  for (; I + 4 <= R1; I += 4) {
    const double *C0 = A + I * M, *C1 = C0 + M, *C2 = C1 + M, *C3 = C2 + M;
    double Y0 = betaStart(Beta, Y, I), Y1 = betaStart(Beta, Y, I + 1);
    double Y2 = betaStart(Beta, Y, I + 2), Y3 = betaStart(Beta, Y, I + 3);
    size_t J = 0;
    for (; J + 4 <= M; J += 4) {
      double S0 = Alpha * X[J], S1 = Alpha * X[J + 1];
      double S2 = Alpha * X[J + 2], S3 = Alpha * X[J + 3];
      Y0 = quadStep(Y0, S0, C0[J], S1, C0[J + 1], S2, C0[J + 2], S3, C0[J + 3]);
      Y1 = quadStep(Y1, S0, C1[J], S1, C1[J + 1], S2, C1[J + 2], S3, C1[J + 3]);
      Y2 = quadStep(Y2, S0, C2[J], S1, C2[J + 1], S2, C2[J + 2], S3, C2[J + 3]);
      Y3 = quadStep(Y3, S0, C3[J], S1, C3[J + 1], S2, C3[J + 2], S3, C3[J + 3]);
    }
    for (; J != M; ++J) {
      double S = Alpha * X[J];
      Y0 = singleStep(Y0, S, C0[J]);
      Y1 = singleStep(Y1, S, C1[J]);
      Y2 = singleStep(Y2, S, C2[J]);
      Y3 = singleStep(Y3, S, C3[J]);
    }
    Y[I] = Y0;
    Y[I + 1] = Y1;
    Y[I + 2] = Y2;
    Y[I + 3] = Y3;
  }
  for (; I != R1; ++I) {
    const double *Col = A + I * M;
    double Acc = betaStart(Beta, Y, I);
    size_t J = 0;
    for (; J + 4 <= M; J += 4)
      Acc = quadStep(Acc, Alpha * X[J], Col[J], Alpha * X[J + 1], Col[J + 1],
                     Alpha * X[J + 2], Col[J + 2], Alpha * X[J + 3],
                     Col[J + 3]);
    for (; J != M; ++J)
      Acc = singleStep(Acc, Alpha * X[J], Col[J]);
    Y[I] = Acc;
  }
}

void betaScaleColumns(size_t M, size_t N, double Beta, double *C) {
  if (Beta == 1.0)
    return;
  if (Beta == 0.0) {
    std::memset(C, 0, M * N * sizeof(double));
    return;
  }
  blas::dscal(M * N, Beta, C);
}

/// The blocked, threaded product behind dgemm and dgemmTA.
void gemmBlocked(bool TransA, size_t M, size_t N, size_t K, double Alpha,
                 const double *A, const double *B, double Beta, double *C) {
  const blas::GemmBlocking &BK = blas::gemmBlocking();
  size_t NumPanels = (N + BK.NC - 1) / BK.NC;
  size_t ASlivers = (BK.MC + MR - 1) / MR, BSlivers = (BK.NC + NR - 1) / NR;
  try {
    par::parallelFor(NumPanels, 1, [&](size_t P0, size_t P1) {
      // Per-task packing buffers, reused across this task's panels; tracked
      // so a live-byte limit covers scratch memory, not just values.
      std::vector<double, mem::TrackingAllocator<double>> ABuf(ASlivers * MR *
                                                               BK.KC);
      std::vector<double, mem::TrackingAllocator<double>> BBuf(BSlivers * NR *
                                                               BK.KC);
      for (size_t Panel = P0; Panel != P1; ++Panel) {
        size_t Jc = Panel * BK.NC;
        size_t Nc = std::min(BK.NC, N - Jc);
        gemmPanel(TransA, M, K, Alpha, A, B + Jc * K, Beta, C + Jc * M, M,
                  Nc, BK, ABuf.data(), BBuf.data());
      }
    });
  } catch (const std::bad_alloc &) {
    throw MatlabError("out of memory in matrix multiply");
  }
}

} // namespace

const blas::GemmBlocking &blas::gemmBlocking() {
  static GemmBlocking BK = [] {
    long L1 = -1, L2 = -1;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
    L1 = sysconf(_SC_LEVEL1_DCACHE_SIZE);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
    L2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
    if (L1 <= 0)
      L1 = 32 * 1024;
    if (L2 <= 0)
      L2 = 1024 * 1024;
    // KC: one packed MRxKC A sliver should fill most of L1 while its
    // NR-wide B sliver streams (32 KiB L1 with MR = 16 gives KC = 256).
    size_t KC = static_cast<size_t>(L1) / (MR * sizeof(double));
    KC = std::clamp(roundDownTo(KC, 8), size_t(64), size_t(512));
    // MC: the packed MCxKC A block should occupy about half of L2.
    size_t MC = static_cast<size_t>(L2) / 2 / (KC * sizeof(double));
    MC = std::clamp(roundDownTo(MC, MR), MR, size_t(1024));
    // NC: width of the column panels distributed across threads. Fixed
    // rather than cache-derived - panel boundaries define the threaded
    // kernel's work units, and a modest width gives enough panels to
    // balance 4+ threads at common sizes (512 cols = 5 panels).
    size_t NC = 120;
    if (size_t V = envBlockSize("MAJIC_GEMM_KC"))
      KC = roundDownTo(V, 8);
    if (size_t V = envBlockSize("MAJIC_GEMM_MC"))
      MC = roundDownTo(V, MR);
    if (size_t V = envBlockSize("MAJIC_GEMM_NC"))
      NC = roundDownTo(V, NR);
    return GemmBlocking{MC, KC, NC};
  }();
  return BK;
}

void blas::dgemv(size_t M, size_t N, double Alpha, const double *A,
                 const double *X, double Beta, double *Y) {
  if (M == 0)
    return;
  if (M * N < 16384) {
    detail::naiveDgemv(M, N, Alpha, A, X, Beta, Y);
    return;
  }
  // Memory-bound: thread only when each chunk still covers a full page's
  // worth of rows, otherwise run the unrolled kernel in one piece.
  par::parallelFor(M, 1024, [&](size_t R0, size_t R1) {
    gemvRows(M, N, Alpha, A, X, Beta, Y, R0, R1);
  });
}

void blas::dgemvT(size_t M, size_t N, double Alpha, const double *A,
                  const double *X, double Beta, double *Y) {
  // dgemv(N, M, ...) on the transposed copy, regime for regime.
  if (N == 0)
    return;
  if (M * N < 16384) {
    detail::naiveDgemvT(M, N, Alpha, A, X, Beta, Y);
    return;
  }
  par::parallelFor(N, 1024, [&](size_t R0, size_t R1) {
    gemvRowsT(M, Alpha, A, X, Beta, Y, R0, R1);
  });
}

namespace {

/// dgemm, or with \p TransA dgemm on the transposed copy of A, regime for
/// regime.
void gemm(bool TransA, size_t M, size_t N, size_t K, double Alpha,
          const double *A, const double *B, double Beta, double *C) {
  if (M == 0 || N == 0)
    return;
  // Keep the fused-Gemv VM op and the interpreter's general product on one
  // code path: a single output column IS a matrix-vector product.
  if (N == 1) {
    if (TransA)
      blas::dgemvT(K, M, Alpha, A, B, Beta, C);
    else
      blas::dgemv(M, K, Alpha, A, B, Beta, C);
    return;
  }
  if (K == 0 || Alpha == 0.0) {
    betaScaleColumns(M, N, Beta, C);
    return;
  }
  if (M * N * K < SmallProduct) {
    if (TransA)
      blas::detail::naiveDgemmTA(M, N, K, Alpha, A, B, Beta, C);
    else
      blas::detail::naiveDgemm(M, N, K, Alpha, A, B, Beta, C);
    return;
  }
  gemmBlocked(TransA, M, N, K, Alpha, A, B, Beta, C);
}

} // namespace

void blas::dgemm(size_t M, size_t N, size_t K, double Alpha, const double *A,
                 const double *B, double Beta, double *C) {
  gemm(/*TransA=*/false, M, N, K, Alpha, A, B, Beta, C);
}

void blas::dgemmTA(size_t M, size_t N, size_t K, double Alpha,
                   const double *A, const double *B, double Beta, double *C) {
  gemm(/*TransA=*/true, M, N, K, Alpha, A, B, Beta, C);
}

void blas::zgemm(size_t M, size_t N, size_t K, const double *ARe,
                 const double *AIm, const double *BRe, const double *BIm,
                 double *CRe, double *CIm) {
  if (M == 0 || N == 0)
    return;
  // Re(C) = Re(A)Re(B) - Im(A)Im(B); Im(C) = Re(A)Im(B) + Im(A)Re(B).
  // Null imaginary planes drop their terms instead of multiplying zeros.
  dgemm(M, N, K, 1.0, ARe, BRe, 0.0, CRe);
  if (AIm && BIm)
    dgemm(M, N, K, -1.0, AIm, BIm, 1.0, CRe);
  if (BIm)
    dgemm(M, N, K, 1.0, ARe, BIm, 0.0, CIm);
  if (AIm)
    dgemm(M, N, K, 1.0, AIm, BRe, BIm ? 1.0 : 0.0, CIm);
  if (!AIm && !BIm)
    std::memset(CIm, 0, M * N * sizeof(double));
}
