//===- tests/KernelTest.cpp - Dense kernel layer -----------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The blocked/threaded kernel layer (ISSUE 2): oracle tests of the blocked
// dgemm/dgemv/zgemm against naive references compiled in this TU (default
// flags, so no FMA contraction sneaks into the oracle), bit-identical
// determinism across ComputeThreads settings, and the parallelFor
// primitive itself. Run under -DMAJIC_SANITIZE=thread to certify the
// parallel paths.
//
//===----------------------------------------------------------------------===//

#include "runtime/Blas.h"
#include "runtime/Builtins.h"
#include "runtime/Context.h"
#include "runtime/Ops.h"
#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

using namespace majic;

namespace {

// Shrink the gemm blocks for this binary (read once, before any kernel
// call): oracle shapes in the tens cross MC/KC/NC boundaries, exercising
// the packed edge tiles and the multi-panel threaded path without
// hundreds-sized matrices.
const bool BlockEnvInit = [] {
  setenv("MAJIC_GEMM_MC", "32", /*overwrite=*/0);
  setenv("MAJIC_GEMM_KC", "64", 0);
  setenv("MAJIC_GEMM_NC", "24", 0);
  return true;
}();

//===----------------------------------------------------------------------===//
// Naive references (this TU = default flags: every multiply and add rounds
// separately, the honest oracle for a 1e-12 relative comparison)
//===----------------------------------------------------------------------===//

void refGemm(size_t M, size_t N, size_t K, double Alpha, const double *A,
             const double *B, double Beta, double *C) {
  for (size_t J = 0; J != N; ++J)
    for (size_t I = 0; I != M; ++I) {
      double Sum = 0;
      for (size_t P = 0; P != K; ++P)
        Sum += A[P * M + I] * B[J * K + P];
      double Base = Beta == 0.0 ? 0.0 : Beta * C[J * M + I];
      C[J * M + I] = Base + Alpha * Sum;
    }
}

void refGemv(size_t M, size_t N, double Alpha, const double *A,
             const double *X, double Beta, double *Y) {
  for (size_t I = 0; I != M; ++I) {
    double Sum = 0;
    for (size_t J = 0; J != N; ++J)
      Sum += A[J * M + I] * X[J];
    Y[I] = (Beta == 0.0 ? 0.0 : Beta * Y[I]) + Alpha * Sum;
  }
}

std::vector<double> randomVec(size_t N, std::mt19937_64 &Rng) {
  std::uniform_real_distribution<double> D(-2.0, 2.0);
  std::vector<double> V(N);
  for (double &X : V)
    X = D(Rng);
  return V;
}

/// Largest mismatch relative to the accumulation scale. \p Scale should be
/// the number of accumulated terms (times the operand magnitude): a K-term
/// dot product carries O(K*eps) forward error, and when Beta*C + Alpha*Sum
/// nearly cancels, the error must be judged against that scale rather than
/// the (tiny) result.
double maxRelDiff(const std::vector<double> &A, const std::vector<double> &B,
                  double Scale = 1.0) {
  EXPECT_EQ(A.size(), B.size());
  double Max = 0;
  for (size_t I = 0; I != A.size(); ++I) {
    double Den = std::max({std::fabs(A[I]), std::fabs(B[I]), Scale, 1e-30});
    Max = std::max(Max, std::fabs(A[I] - B[I]) / Den);
  }
  return Max;
}

//===----------------------------------------------------------------------===//
// dgemm / dgemv oracle
//===----------------------------------------------------------------------===//

TEST(Dgemm, OracleOverShapesAndScalars) {
  // 0/1 dims, primes, and sizes beyond the (shrunken) MC/KC/NC blocks.
  const size_t Dims[][3] = {
      {0, 0, 0},  {0, 3, 2},   {3, 0, 2},   {3, 2, 0},   {1, 1, 1},
      {1, 7, 5},  {7, 1, 5},   {5, 4, 1},   {2, 2, 2},   {13, 11, 7},
      {17, 3, 29}, {31, 37, 5}, {33, 25, 65}, {67, 26, 70}, {40, 49, 128},
  };
  const double Alphas[] = {0.0, 1.0, -1.0, 0.5};
  const double Betas[] = {0.0, 1.0, 0.7};
  std::mt19937_64 Rng(0xC0FFEE);
  for (const auto &D : Dims) {
    size_t M = D[0], N = D[1], K = D[2];
    std::vector<double> A = randomVec(M * K, Rng);
    std::vector<double> B = randomVec(K * N, Rng);
    std::vector<double> CInit = randomVec(M * N, Rng);
    for (double Alpha : Alphas)
      for (double Beta : Betas) {
        std::vector<double> Got = CInit, Want = CInit;
        blas::dgemm(M, N, K, Alpha, A.data(), B.data(), Beta, Got.data());
        refGemm(M, N, K, Alpha, A.data(), B.data(), Beta, Want.data());
        EXPECT_LE(maxRelDiff(Got, Want, static_cast<double>(K) + 1.0), 1e-12)
            << M << "x" << N << "x" << K << " alpha=" << Alpha
            << " beta=" << Beta;
      }
  }
}

TEST(Dgemm, RandomizedShapes) {
  std::mt19937_64 Rng(42);
  std::uniform_int_distribution<size_t> Dim(0, 90);
  for (int Round = 0; Round != 25; ++Round) {
    size_t M = Dim(Rng), N = Dim(Rng), K = Dim(Rng);
    std::vector<double> A = randomVec(M * K, Rng);
    std::vector<double> B = randomVec(K * N, Rng);
    std::vector<double> Got(M * N, 0.5), Want(M * N, 0.5);
    blas::dgemm(M, N, K, 1.0, A.data(), B.data(), 0.0, Got.data());
    refGemm(M, N, K, 1.0, A.data(), B.data(), 0.0, Want.data());
    EXPECT_LE(maxRelDiff(Got, Want, static_cast<double>(K) + 1.0), 1e-12)
        << "round " << Round << ": " << M << "x" << N << "x" << K;
  }
}

TEST(Dgemv, OracleOverShapesAndScalars) {
  // Spans the small->fast cutoff (M*N = 16384) and the parallel row split.
  const size_t Dims[][2] = {{0, 5},   {1, 1},    {7, 13},   {113, 97},
                            {128, 128}, {257, 129}, {2111, 17}, {37, 1000}};
  const double Alphas[] = {0.0, 1.0, -1.0, 0.5};
  const double Betas[] = {0.0, 1.0, 0.7};
  std::mt19937_64 Rng(0xBEEF);
  for (const auto &D : Dims) {
    size_t M = D[0], N = D[1];
    std::vector<double> A = randomVec(M * N, Rng);
    std::vector<double> X = randomVec(N, Rng);
    std::vector<double> YInit = randomVec(M, Rng);
    for (double Alpha : Alphas)
      for (double Beta : Betas) {
        std::vector<double> Got = YInit, Want = YInit;
        blas::dgemv(M, N, Alpha, A.data(), X.data(), Beta, Got.data());
        refGemv(M, N, Alpha, A.data(), X.data(), Beta, Want.data());
        EXPECT_LE(maxRelDiff(Got, Want, static_cast<double>(N) + 1.0), 1e-12)
            << M << "x" << N << " alpha=" << Alpha << " beta=" << Beta;
      }
  }
}

TEST(Dgemm, SingleColumnMatchesDgemv) {
  // The VM's fused Gemv op calls dgemv directly while the interpreter goes
  // through dgemm; the delegation must make them bit-identical.
  std::mt19937_64 Rng(7);
  size_t M = 211, K = 113;
  std::vector<double> A = randomVec(M * K, Rng);
  std::vector<double> X = randomVec(K, Rng);
  std::vector<double> ViaGemm(M, 0.0), ViaGemv(M, 0.0);
  blas::dgemm(M, 1, K, 1.0, A.data(), X.data(), 0.0, ViaGemm.data());
  blas::dgemv(M, K, 1.0, A.data(), X.data(), 0.0, ViaGemv.data());
  EXPECT_EQ(0, std::memcmp(ViaGemm.data(), ViaGemv.data(),
                           M * sizeof(double)));
}

//===----------------------------------------------------------------------===//
// zgemm oracle
//===----------------------------------------------------------------------===//

TEST(Zgemm, OracleIncludingRealComplexMixes) {
  using Cplx = std::complex<double>;
  std::mt19937_64 Rng(0xABCD);
  size_t M = 29, N = 31, K = 27;
  std::vector<double> ARe = randomVec(M * K, Rng), AIm = randomVec(M * K, Rng);
  std::vector<double> BRe = randomVec(K * N, Rng), BIm = randomVec(K * N, Rng);
  // All four real/complex operand combinations.
  for (int Mix = 0; Mix != 4; ++Mix) {
    const double *AI = (Mix & 1) ? AIm.data() : nullptr;
    const double *BI = (Mix & 2) ? BIm.data() : nullptr;
    std::vector<double> CRe(M * N), CIm(M * N);
    blas::zgemm(M, N, K, ARe.data(), AI, BRe.data(), BI, CRe.data(),
                CIm.data());
    for (size_t J = 0; J != N; ++J)
      for (size_t I = 0; I != M; ++I) {
        Cplx Sum = 0;
        for (size_t P = 0; P != K; ++P) {
          Cplx Av(ARe[P * M + I], AI ? AIm[P * M + I] : 0.0);
          Cplx Bv(BRe[J * K + P], BI ? BIm[J * K + P] : 0.0);
          Sum += Av * Bv;
        }
        double Den = std::max(std::abs(Sum), 1e-30);
        EXPECT_LE(std::abs(Cplx(CRe[J * M + I], CIm[J * M + I]) - Sum) / Den,
                  1e-12)
            << "mix " << Mix << " at (" << I << "," << J << ")";
      }
  }
}

TEST(Zgemm, ComplexMatMulThroughOps) {
  // End to end through rt::binary: complex * real-mix products agree with
  // a per-element reference.
  size_t M = 9, K = 8, N = 7;
  std::mt19937_64 Rng(99);
  Value A = Value::zeros(M, K, MClass::Complex);
  Value B = Value::zeros(K, N); // real operand
  std::uniform_real_distribution<double> D(-1.0, 1.0);
  for (size_t I = 0; I != M * K; ++I) {
    A.reRef(I) = D(Rng);
    A.imRef(I) = D(Rng);
  }
  for (size_t I = 0; I != K * N; ++I)
    B.reRef(I) = D(Rng);
  Value C = rt::binary(rt::BinOp::MatMul, A, B);
  ASSERT_TRUE(C.isComplex());
  ASSERT_EQ(C.rows(), M);
  ASSERT_EQ(C.cols(), N);
  for (size_t J = 0; J != N; ++J)
    for (size_t I = 0; I != M; ++I) {
      std::complex<double> Sum = 0;
      for (size_t P = 0; P != K; ++P)
        Sum += std::complex<double>(A.at(I, P), A.atIm(I, P)) * B.at(P, J);
      EXPECT_NEAR(C.at(I, J), Sum.real(), 1e-12);
      EXPECT_NEAR(C.atIm(I, J), Sum.imag(), 1e-12);
    }
}

//===----------------------------------------------------------------------===//
// Products with a transposed left operand: dgemvT / dgemmTA and
// rt::matMulTransA against the transposed copy, byte for byte
//===----------------------------------------------------------------------===//

std::vector<double> transposed(const std::vector<double> &A, size_t R,
                               size_t C) {
  std::vector<double> T(A.size());
  for (size_t J = 0; J != C; ++J)
    for (size_t I = 0; I != R; ++I)
      T[I * C + J] = A[J * R + I];
  return T;
}

/// Salts \p V with the values the naive kernels treat specially (a zero
/// scale is skipped) or that propagate loudly: 0, -0, NaN and +-Inf.
void salt(std::vector<double> &V, size_t Stride) {
  const double Specials[] = {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  for (size_t I = 0, K = 0; I < V.size(); I += Stride, ++K)
    V[I] = Specials[K % 5];
}

/// Byte for byte, except that any NaN matches any NaN: which of two NaNs
/// an addition returns depends on the compiler's operand order.
void expectSameBitsUpToNaN(const std::vector<double> &Want,
                           const std::vector<double> &Got) {
  ASSERT_EQ(Want.size(), Got.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    if (std::isnan(Want[I]) && std::isnan(Got[I]))
      continue;
    EXPECT_EQ(std::bit_cast<uint64_t>(Want[I]), std::bit_cast<uint64_t>(Got[I]))
        << "element " << I << ": " << Want[I] << " vs " << Got[I];
  }
}

TEST(TransA, KernelsMatchTheTransposedCopyBitForBit) {
  std::mt19937_64 Rng(21);
  // (rows of A, cols of A, cols of B): both sides of dgemv's M*N < 16384
  // cutoff, of dgemm's M*N*K < 32768 cutoff (with this binary's small
  // blocks), N == 1, a 1x1 result and empty operands.
  const size_t Shapes[][3] = {
      {120, 120, 1}, {127, 129, 1}, {128, 128, 1}, {130, 131, 1},
      {16384, 1, 1}, {7, 3000, 1},  {40, 31, 26},  {41, 32, 25},
      {65, 33, 33},  {83, 151, 67}, {5, 1, 1},     {0, 3, 2},
      {4, 0, 2},     {3, 2, 0},     {1, 4, 3},     {6, 1, 4}};
  for (const auto &S : Shapes) {
    size_t K = S[0], M = S[1], N = S[2];
    SCOPED_TRACE(::testing::Message() << K << "x" << M << " ' * " << K << "x"
                                      << N);
    std::vector<double> A = randomVec(K * M, Rng), B = randomVec(K * N, Rng);
    salt(A, 7);
    salt(B, 5);
    std::vector<double> At = transposed(A, K, M);
    for (double Beta : {0.0, 1.0, 0.7}) {
      std::vector<double> Want(M * N, 0.25), Got(M * N, 0.25);
      blas::dgemm(M, N, K, 1.3, At.data(), B.data(), Beta, Want.data());
      blas::dgemmTA(M, N, K, 1.3, A.data(), B.data(), Beta, Got.data());
      SCOPED_TRACE(::testing::Message() << "beta " << Beta);
      expectSameBitsUpToNaN(Want, Got);
    }
    if (N == 0)
      continue; // B's first column is dgemv's x
    std::vector<double> Want(M, -1.5), Got(M, -1.5);
    blas::dgemv(M, K, 0.5, At.data(), B.data(), 0.3, Want.data());
    blas::dgemvT(K, M, 0.5, A.data(), B.data(), 0.3, Got.data());
    expectSameBitsUpToNaN(Want, Got);
  }
}

Value matrixOf(size_t R, size_t C, std::mt19937_64 &Rng,
               MClass Cls = MClass::Real) {
  Value V = Value::zeros(R, C, Cls);
  std::uniform_int_distribution<int> Small(-3, 3);
  for (size_t I = 0; I != R * C; ++I) {
    V.reData()[I] = Cls == MClass::Bool   ? Small(Rng) > 0
                    : Cls == MClass::Int ? Small(Rng)
                                         : randomVec(1, Rng)[0];
    if (Cls == MClass::Complex)
      V.imData()[I] = randomVec(1, Rng)[0];
  }
  return V;
}

/// rt::matMulTransA against binary(MatMul, unary(Op, X), Y): the same
/// shape, class and bytes, or the same error text.
void expectTransAMatches(rt::UnOp Op, const Value &X, const Value &Y) {
  auto Run = [](auto Fn, Value &Out) -> std::string {
    try {
      Out = Fn();
      return "";
    } catch (const MatlabError &E) {
      return "error: " + E.message();
    }
  };
  Value Want, Got;
  std::string WantErr = Run(
      [&] {
        return rt::binary(rt::BinOp::MatMul, rt::unary(Op, X), Y);
      },
      Want);
  std::string GotErr = Run([&] { return rt::matMulTransA(Op, X, Y); }, Got);
  ASSERT_EQ(WantErr, GotErr);
  if (!WantErr.empty())
    return;
  ASSERT_EQ(Want.rows(), Got.rows());
  ASSERT_EQ(Want.cols(), Got.cols());
  EXPECT_EQ(Want.mclass(), Got.mclass());
  size_t Bytes = Want.numel() * sizeof(double);
  if (Bytes == 0)
    return; // an empty value's planes may be null
  EXPECT_EQ(0, std::memcmp(Want.reData(), Got.reData(), Bytes));
  if (Want.isComplex()) {
    EXPECT_EQ(0, std::memcmp(Want.imData(), Got.imData(), Bytes));
  }
}

TEST(TransA, MatMulTransAMatchesMaterializeThenMultiply) {
  std::mt19937_64 Rng(23);
  using rt::UnOp;
  for (UnOp Op : {UnOp::CTranspose, UnOp::Transpose}) {
    SCOPED_TRACE(rt::unOpName(Op));
    // Real doubles over the kernels' regimes, salted with specials.
    for (auto [K, M, N] : {std::tuple<size_t, size_t, size_t>{120, 120, 1},
                           {130, 130, 1},
                           {65, 33, 33},
                           {5, 1, 1},
                           {0, 3, 2},
                           {4, 0, 2}}) {
      Value X = matrixOf(K, M, Rng), Y = matrixOf(K, N, Rng);
      for (size_t I = 0; I < X.numel(); I += 11)
        X.reData()[I] = I % 2 ? -0.0 : std::numeric_limits<double>::infinity();
      for (size_t I = 1; I < Y.numel(); I += 5)
        Y.reData()[I] = I % 2 ? 0.0 : std::numeric_limits<double>::quiet_NaN();
      expectTransAMatches(Op, X, Y);
    }
    // Int and bool classes keep matMul's class rule; complex operands
    // conjugate under ' and not under .'; strings become char codes.
    for (MClass XC : {MClass::Int, MClass::Bool, MClass::Complex, MClass::Real})
      for (MClass YC : {MClass::Int, MClass::Bool, MClass::Complex,
                        MClass::Real})
        expectTransAMatches(Op, matrixOf(6, 4, Rng, XC),
                            matrixOf(6, 3, Rng, YC));
    expectTransAMatches(Op, Value::str("abc"), matrixOf(1, 2, Rng));
    expectTransAMatches(Op, matrixOf(3, 1, Rng), Value::str("abc"));
    // Scalar sides broadcast; mismatched inner dimensions fail alike.
    expectTransAMatches(Op, matrixOf(1, 1, Rng), matrixOf(3, 2, Rng));
    expectTransAMatches(Op, matrixOf(3, 2, Rng), matrixOf(1, 1, Rng));
    expectTransAMatches(Op, matrixOf(3, 4, Rng), matrixOf(5, 2, Rng));
    expectTransAMatches(Op, matrixOf(3, 1, Rng), matrixOf(4, 1, Rng));
  }
  // Any other operator materializes: the entry point stays total.
  expectTransAMatches(rt::UnOp::Neg, matrixOf(1, 3, Rng), matrixOf(3, 2, Rng));
}

//===----------------------------------------------------------------------===//
// Small kernels
//===----------------------------------------------------------------------===//

TEST(VectorKernels, DdotAndDaxpyz) {
  std::mt19937_64 Rng(3);
  size_t N = 1003; // exercises the unroll tail
  std::vector<double> X = randomVec(N, Rng), Y = randomVec(N, Rng);
  double Want = 0;
  for (size_t I = 0; I != N; ++I)
    Want += X[I] * Y[I];
  EXPECT_NEAR(blas::ddot(N, X.data(), Y.data()), Want, 1e-12 * N);

  // daxpyz == copy + daxpy, bit for bit (the VM relies on this).
  std::vector<double> Z(N), ViaAxpy = Y;
  blas::daxpyz(N, 1.7, X.data(), Y.data(), Z.data());
  blas::daxpy(N, 1.7, X.data(), ViaAxpy.data());
  EXPECT_EQ(0, std::memcmp(Z.data(), ViaAxpy.data(), N * sizeof(double)));
}

//===----------------------------------------------------------------------===//
// Determinism across thread counts
//===----------------------------------------------------------------------===//

/// Runs \p Fn under each ComputeThreads in {1,2,4} and checks the raw
/// output bytes never change. Restores the automatic thread count.
template <typename Fn> void expectThreadInvariant(Fn Produce) {
  std::vector<double> Baseline = (par::setComputeThreads(1), Produce());
  for (unsigned T : {2u, 4u}) {
    par::setComputeThreads(T);
    std::vector<double> Got = Produce();
    ASSERT_EQ(Got.size(), Baseline.size());
    EXPECT_EQ(0, std::memcmp(Got.data(), Baseline.data(),
                             Got.size() * sizeof(double)))
        << "results changed with " << T << " threads";
  }
  par::setComputeThreads(0);
}

TEST(Determinism, GemmBitIdenticalAcrossThreadCounts) {
  std::mt19937_64 Rng(11);
  size_t M = 151, N = 67, K = 83; // several NC=24 panels, odd edges
  std::vector<double> A = randomVec(M * K, Rng), B = randomVec(K * N, Rng);
  expectThreadInvariant([&] {
    std::vector<double> C(M * N, 0.25);
    blas::dgemm(M, N, K, 1.0, A.data(), B.data(), 0.7, C.data());
    return C;
  });
}

TEST(Determinism, GemvBitIdenticalAcrossThreadCounts) {
  std::mt19937_64 Rng(12);
  size_t M = 4099, N = 53;
  std::vector<double> A = randomVec(M * N, Rng), X = randomVec(N, Rng);
  expectThreadInvariant([&] {
    std::vector<double> Y(M, 1.5);
    blas::dgemv(M, N, 1.0, A.data(), X.data(), 0.3, Y.data());
    return Y;
  });
}

TEST(Determinism, GemvTBitIdenticalAcrossThreadCounts) {
  std::mt19937_64 Rng(22);
  size_t M = 53, N = 4099; // the threaded regime, odd chunk edges
  std::vector<double> A = randomVec(M * N, Rng), X = randomVec(M, Rng);
  expectThreadInvariant([&] {
    std::vector<double> Y(N, 1.5);
    blas::dgemvT(M, N, 1.0, A.data(), X.data(), 0.3, Y.data());
    return Y;
  });
}

TEST(Determinism, ElementwiseBitIdenticalAcrossThreadCounts) {
  size_t N = 100003; // above the parallel grain, odd tail
  Value A = Value::zeros(N, 1), B = Value::zeros(N, 1);
  for (size_t I = 0; I != N; ++I) {
    A.reRef(I) = std::sin(0.001 * static_cast<double>(I));
    B.reRef(I) = 1.0 + 0.5 * std::cos(0.002 * static_cast<double>(I));
  }
  expectThreadInvariant([&] {
    Value R = rt::binary(rt::BinOp::ElemRDiv, A, B);
    return std::vector<double>(R.reData(), R.reData() + N);
  });
  // Scalar-operand fast path.
  expectThreadInvariant([&] {
    Value R = rt::binary(rt::BinOp::ElemMul, A, Value::scalar(1.000001));
    return std::vector<double>(R.reData(), R.reData() + N);
  });
  // Comparison mask.
  expectThreadInvariant([&] {
    Value R = rt::binary(rt::BinOp::Lt, A, B);
    return std::vector<double>(R.reData(), R.reData() + N);
  });
}

TEST(Determinism, SumBitIdenticalAcrossThreadCounts) {
  size_t N = (1u << 17) + 7; // multiple fixed reduction chunks, odd tail
  Value V = Value::zeros(N, 1);
  for (size_t I = 0; I != N; ++I)
    V.reRef(I) = std::sin(0.37 * static_cast<double>(I));
  Context Ctx;
  const BuiltinDef *Sum = BuiltinTable::instance().lookup("sum");
  ASSERT_NE(Sum, nullptr);
  expectThreadInvariant([&] {
    const Value *Args[] = {&V};
    std::vector<Value> R = BuiltinTable::call(*Sum, Ctx, Args, 1);
    return std::vector<double>{R.at(0).scalarValue()};
  });
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  par::setComputeThreads(4);
  size_t N = 100001;
  std::vector<std::atomic<int>> Hits(N);
  par::parallelFor(N, 1000, [&](size_t B, size_t E) {
    EXPECT_TRUE(par::inParallelRegion());
    for (size_t I = B; I != E; ++I)
      Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_FALSE(par::inParallelRegion());
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
  par::setComputeThreads(0);
}

TEST(ParallelFor, SmallRangeRunsAsOneChunk) {
  par::setComputeThreads(4);
  std::atomic<int> Calls{0};
  par::parallelFor(100, 1000, [&](size_t B, size_t E) {
    Calls.fetch_add(1);
    EXPECT_EQ(B, 0u);
    EXPECT_EQ(E, 100u);
  });
  EXPECT_EQ(Calls.load(), 1);
  par::parallelFor(0, 1, [&](size_t, size_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 1); // empty range: body never runs
  par::setComputeThreads(0);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  par::setComputeThreads(4);
  std::atomic<int> Inner{0};
  par::parallelFor(100000, 100, [&](size_t B, size_t E) {
    // A nested parallelFor must not deadlock or re-enter the pool: it runs
    // the whole inner range inline on this thread.
    par::parallelFor(E - B, 1, [&](size_t IB, size_t IE) {
      EXPECT_EQ(IB, 0u);
      EXPECT_EQ(IE, E - B);
      Inner.fetch_add(1);
    });
  });
  EXPECT_GE(Inner.load(), 1);
  par::setComputeThreads(0);
}

TEST(ParallelFor, PropagatesBodyExceptions) {
  par::setComputeThreads(4);
  EXPECT_THROW(
      par::parallelFor(100000, 100,
                       [](size_t B, size_t) {
                         if (B == 0)
                           throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool is still usable afterwards.
  std::atomic<int> Ran{0};
  par::parallelFor(100000, 100,
                   [&](size_t, size_t) { Ran.fetch_add(1); });
  EXPECT_GE(Ran.load(), 1);
  par::setComputeThreads(0);
}

TEST(ParallelFor, ComputeThreadsResolvesToAtLeastOne) {
  par::setComputeThreads(0);
  EXPECT_GE(par::computeThreads(), 1u);
  par::setComputeThreads(3);
  EXPECT_EQ(par::computeThreads(), 3u);
  par::setComputeThreads(0);
}

} // namespace
