//===- runtime/Blas.h - BLAS-like dense kernels ----------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BLAS-like kernels over column-major double arrays. These are the
/// "precompiled library" side of MATLAB that compilation cannot accelerate
/// (Section 3.4: builtin-heavy benchmarks barely benefit), and the fusion
/// targets of the dgemv code-selection rule (Section 2.6.1).
///
/// The implementation is split across two translation units with different
/// floating-point contracts:
///
///  - BlasKernels.cpp (dgemm/dgemv/zgemm): cache-blocked, vectorized, and
///    multithreaded; built with the host's full instruction set (FMA is
///    allowed because the interpreter and the VM reach matrix products
///    through these same entry points, so both see identical results).
///    Threaded kernels partition work into fixed-size panels whose
///    per-element computation order does not depend on the thread count -
///    results are bit-identical for any ComputeThreads setting.
///
///  - Blas.cpp (ddot/daxpy/daxpyz/dscal/dnrm2 and the small-size naive
///    fallbacks): built without extra arch flags so no FMA contraction
///    occurs. The VM's fused Axpy op must match the interpreter's separate
///    multiply-then-add element-wise sequence to the last bit, which a
///    contracted fused multiply-add would break.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_RUNTIME_BLAS_H
#define MAJIC_RUNTIME_BLAS_H

#include <cstddef>

namespace majic {
namespace blas {

/// dot(x, y) over n elements.
double ddot(size_t N, const double *X, const double *Y);

/// y += a * x over n elements.
void daxpy(size_t N, double A, const double *X, double *Y);

/// z = a * x + y over n elements (single-pass fused form of the VM's Axpy
/// op; z may not alias x but may equal y). Computes round(round(a*x) + y)
/// exactly like daxpy - never FMA-contracted.
void daxpyz(size_t N, double A, const double *X, const double *Y, double *Z);

/// x *= a over n elements.
void dscal(size_t N, double A, double *X);

/// y = alpha * A * x + beta * y, A is MxN column-major.
void dgemv(size_t M, size_t N, double Alpha, const double *A, const double *X,
           double Beta, double *Y);

/// y = alpha * A' * x + beta * y without transposing A: A is MxN
/// column-major, x has M elements and y has N. Every y[i] is summed in the
/// order dgemv(N, M, ...) on the transposed copy of A sums it, so the two
/// agree bit for bit (the same size cutoff, zero-skip and unrolled chains)
/// - except for which of two different NaNs an addition returns, which
/// depends on the operand order the compiler chose.
void dgemvT(size_t M, size_t N, double Alpha, const double *A, const double *X,
            double Beta, double *Y);

/// C = alpha * A * B + beta * C; A is MxK, B is KxN, C is MxN, column-major.
/// Small products use the naive seed kernel; larger ones the blocked,
/// multithreaded kernel. N == 1 delegates to dgemv so the VM's fused Gemv
/// op and the interpreter's general matrix product stay bit-identical.
void dgemm(size_t M, size_t N, size_t K, double Alpha, const double *A,
           const double *B, double Beta, double *C);

/// C = alpha * A' * B + beta * C without transposing A: A is KxM, B is KxN,
/// C is MxN, column-major. Bit-identical to dgemm on the transposed copy
/// of A, up to NaN payloads as for dgemvT: the naive path reads A
/// transposed, the blocked path packs from it into the same buffer, and
/// N == 1 delegates to dgemvT.
void dgemmTA(size_t M, size_t N, size_t K, double Alpha, const double *A,
             const double *B, double Beta, double *C);

/// Complex C = A * B over split real/imaginary planes; A is MxK, B is KxN,
/// C is MxN, column-major. A null AIm/BIm means that operand is purely real
/// (the plane is implicitly zero), so real-by-complex products never
/// materialize a zero imaginary plane. CRe and CIm must both be non-null
/// and are fully overwritten. Internally four (or fewer) dgemm calls.
void zgemm(size_t M, size_t N, size_t K, const double *ARe, const double *AIm,
           const double *BRe, const double *BIm, double *CRe, double *CIm);

/// Euclidean norm of an n-vector.
double dnrm2(size_t N, const double *X);

/// Cache-blocking parameters the blocked dgemm runs with. MC and KC are
/// sized from the host's L1/L2 data caches at first use; NC is the width of
/// the column panels the parallel kernel distributes over threads.
/// MAJIC_GEMM_MC / MAJIC_GEMM_KC / MAJIC_GEMM_NC override each field.
struct GemmBlocking {
  size_t MC, KC, NC;
};

/// The process-wide blocking configuration (resolved once, then cached).
const GemmBlocking &gemmBlocking();

namespace detail {

/// The starting value of output I of a matrix-vector product: beta * y[I]
/// as naiveDgemv scales it, and 0 for beta == 0 whatever y holds. Internal
/// linkage, because the two kernel TUs are built with different flags.
static inline double betaStart(double Beta, const double *Y, size_t I) {
  return Beta == 0.0 ? 0.0 : Beta != 1.0 ? Y[I] * Beta : Y[I];
}

/// The seed's reference kernels, kept verbatim (axpy-style, zero-skip) in
/// the no-arch-flags TU. The public entry points fall back to these below
/// the blocking cutoff so small products - everything the golden tests
/// print - are byte-for-byte identical with the seed runtime.
void naiveDgemm(size_t M, size_t N, size_t K, double Alpha, const double *A,
                const double *B, double Beta, double *C);
void naiveDgemv(size_t M, size_t N, double Alpha, const double *A,
                const double *X, double Beta, double *Y);
/// The same two kernels reading A transposed (A is MxN for naiveDgemvT,
/// KxM for naiveDgemmTA): each output keeps its own sequential chain in
/// naiveDgemv's / naiveDgemm's order; several outputs interleave.
void naiveDgemvT(size_t M, size_t N, double Alpha, const double *A,
                 const double *X, double Beta, double *Y);
void naiveDgemmTA(size_t M, size_t N, size_t K, double Alpha, const double *A,
                  const double *B, double Beta, double *C);

} // namespace detail

} // namespace blas
} // namespace majic

#endif // MAJIC_RUNTIME_BLAS_H
