//===- tests/BuiltinsTest.cpp - Builtin library ------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Builtins.h"
#include "runtime/LinAlg.h"
#include "runtime/Ops.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

using namespace majic;

namespace {

class BuiltinsTest : public ::testing::Test {
protected:
  Value call1(const std::string &Name, std::vector<Value> Args) {
    std::vector<Value> Rs = callN(Name, std::move(Args), 1);
    EXPECT_FALSE(Rs.empty());
    return Rs.empty() ? Value() : Rs.front();
  }

  std::vector<Value> callN(const std::string &Name, std::vector<Value> Args,
                           size_t NumOuts) {
    const BuiltinDef *Def = BuiltinTable::instance().lookup(Name);
    EXPECT_NE(Def, nullptr) << Name;
    std::vector<const Value *> Ptrs;
    for (const Value &V : Args)
      Ptrs.push_back(&V);
    return BuiltinTable::call(*Def, Ctx, Ptrs, NumOuts);
  }

  Value vec(std::initializer_list<double> Xs) {
    Value V = Value::zeros(1, Xs.size());
    size_t I = 0;
    for (double X : Xs)
      V.reRef(I++) = X;
    return V;
  }

  Context Ctx;
};

TEST_F(BuiltinsTest, TableLookup) {
  EXPECT_TRUE(BuiltinTable::instance().contains("zeros"));
  EXPECT_TRUE(BuiltinTable::instance().contains("sqrt"));
  EXPECT_TRUE(BuiltinTable::instance().contains("i"));
  EXPECT_FALSE(BuiltinTable::instance().contains("nosuchfn"));
}

TEST_F(BuiltinsTest, Creators) {
  Value Z = call1("zeros", {Value::scalar(2), Value::scalar(3)});
  EXPECT_EQ(Z.rows(), 2u);
  EXPECT_EQ(Z.cols(), 3u);
  Value O = call1("ones", {Value::scalar(2)});
  EXPECT_EQ(O.rows(), 2u);
  EXPECT_EQ(O.cols(), 2u);
  EXPECT_DOUBLE_EQ(O.re(3), 1.0);
  Value E = call1("eye", {Value::scalar(3)});
  EXPECT_DOUBLE_EQ(E.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(E.at(1, 0), 0.0);
}

TEST_F(BuiltinsTest, RandIsDeterministicPerSeed) {
  Ctx.Rand.reseed(42);
  Value A = call1("rand", {Value::scalar(2), Value::scalar(2)});
  Ctx.Rand.reseed(42);
  Value B = call1("rand", {Value::scalar(2), Value::scalar(2)});
  for (size_t I = 0; I != 4; ++I) {
    EXPECT_EQ(A.re(I), B.re(I));
    EXPECT_GE(A.re(I), 0.0);
    EXPECT_LT(A.re(I), 1.0);
  }
}

TEST_F(BuiltinsTest, SizeForms) {
  Value M = Value::zeros(3, 4);
  Value S = call1("size", {M});
  EXPECT_EQ(S.numel(), 2u);
  EXPECT_DOUBLE_EQ(S.re(0), 3);
  EXPECT_DOUBLE_EQ(S.re(1), 4);

  Value R = call1("size", {M, Value::scalar(1)});
  EXPECT_DOUBLE_EQ(R.scalarValue(), 3);

  std::vector<Value> Two = callN("size", {M}, 2);
  ASSERT_EQ(Two.size(), 2u);
  EXPECT_DOUBLE_EQ(Two[0].scalarValue(), 3);
  EXPECT_DOUBLE_EQ(Two[1].scalarValue(), 4);
}

TEST_F(BuiltinsTest, LengthNumel) {
  Value M = Value::zeros(3, 4);
  EXPECT_DOUBLE_EQ(call1("length", {M}).scalarValue(), 4);
  EXPECT_DOUBLE_EQ(call1("numel", {M}).scalarValue(), 12);
  EXPECT_DOUBLE_EQ(call1("length", {Value()}).scalarValue(), 0);
}

TEST_F(BuiltinsTest, SqrtEscalatesToComplex) {
  Value R = call1("sqrt", {Value::scalar(-4)});
  EXPECT_TRUE(R.isComplex());
  EXPECT_NEAR(R.im(0), 2.0, 1e-12);
  Value R2 = call1("sqrt", {Value::scalar(9)});
  EXPECT_FALSE(R2.isComplex());
  EXPECT_DOUBLE_EQ(R2.scalarValue(), 3);
}

TEST_F(BuiltinsTest, AbsOfComplexIsMagnitude) {
  Value R = call1("abs", {Value::complexScalar(3, 4)});
  EXPECT_FALSE(R.isComplex());
  EXPECT_DOUBLE_EQ(R.scalarValue(), 5);
}

TEST_F(BuiltinsTest, Reductions) {
  EXPECT_DOUBLE_EQ(call1("sum", {vec({1, 2, 3})}).scalarValue(), 6);
  EXPECT_DOUBLE_EQ(call1("prod", {vec({2, 3, 4})}).scalarValue(), 24);
  EXPECT_DOUBLE_EQ(call1("mean", {vec({1, 2, 3})}).scalarValue(), 2);
  // Matrix reductions are column-wise.
  Value M = Value::zeros(2, 2);
  M.reRef(0) = 1;
  M.reRef(1) = 2;
  M.reRef(2) = 3;
  M.reRef(3) = 4;
  Value S = call1("sum", {M});
  EXPECT_EQ(S.cols(), 2u);
  EXPECT_DOUBLE_EQ(S.re(0), 3);
  EXPECT_DOUBLE_EQ(S.re(1), 7);
}

TEST_F(BuiltinsTest, MaxMinWithIndices) {
  std::vector<Value> R = callN("max", {vec({3, 9, 1})}, 2);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_DOUBLE_EQ(R[0].scalarValue(), 9);
  EXPECT_DOUBLE_EQ(R[1].scalarValue(), 2); // 1-based index
  Value M2 = call1("max", {vec({1, 5}), vec({3, 2})});
  EXPECT_DOUBLE_EQ(M2.re(0), 3);
  EXPECT_DOUBLE_EQ(M2.re(1), 5);
  EXPECT_DOUBLE_EQ(call1("min", {vec({3, 9, 1})}).scalarValue(), 1);
}

TEST_F(BuiltinsTest, NormVariants) {
  Value V = vec({3, 4});
  EXPECT_DOUBLE_EQ(call1("norm", {V}).scalarValue(), 5);
  EXPECT_DOUBLE_EQ(call1("norm", {V, Value::scalar(1)}).scalarValue(), 7);
  Value VInf = call1("norm", {V, Value::str("inf")});
  EXPECT_DOUBLE_EQ(VInf.scalarValue(), 4);
}

TEST_F(BuiltinsTest, SpectralNormOfAMatrix) {
  // norm([1 2; 3 4]) = sqrt(max eig([10 14; 14 20])) = sqrt(15 + sqrt(221)).
  Value M = Value::zeros(2, 2);
  M.reRef(0) = 1;
  M.reRef(1) = 3;
  M.reRef(2) = 2;
  M.reRef(3) = 4;
  EXPECT_NEAR(call1("norm", {M}).scalarValue(), std::sqrt(15 + std::sqrt(221.0)),
              1e-14);
  // A NaN makes the norm NaN, an Inf makes it Inf (eig would reject both).
  M.reRef(2) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(call1("norm", {M}).scalarValue(),
            std::numeric_limits<double>::infinity());
  M.reRef(1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(call1("norm", {M}).scalarValue()));
}

TEST_F(BuiltinsTest, DotProduct) {
  EXPECT_DOUBLE_EQ(call1("dot", {vec({1, 2}), vec({3, 4})}).scalarValue(), 11);
}

TEST_F(BuiltinsTest, FindAnyAllSort) {
  Value F = call1("find", {vec({0, 7, 0, 9})});
  EXPECT_EQ(F.numel(), 2u);
  EXPECT_DOUBLE_EQ(F.re(0), 2);
  EXPECT_DOUBLE_EQ(F.re(1), 4);
  EXPECT_DOUBLE_EQ(call1("any", {vec({0, 0, 1})}).scalarValue(), 1);
  EXPECT_DOUBLE_EQ(call1("all", {vec({1, 0, 1})}).scalarValue(), 0);
  Value S = call1("sort", {vec({3, 1, 2})});
  EXPECT_DOUBLE_EQ(S.re(0), 1);
  EXPECT_DOUBLE_EQ(S.re(2), 3);
}

TEST_F(BuiltinsTest, ModRemSign) {
  EXPECT_DOUBLE_EQ(
      call1("mod", {Value::scalar(-1), Value::scalar(3)}).scalarValue(), 2);
  EXPECT_DOUBLE_EQ(
      call1("rem", {Value::scalar(-1), Value::scalar(3)}).scalarValue(), -1);
  EXPECT_DOUBLE_EQ(call1("sign", {Value::scalar(-7)}).scalarValue(), -1);
}

TEST_F(BuiltinsTest, Constants) {
  EXPECT_NEAR(call1("pi", {}).scalarValue(), 3.14159265358979, 1e-12);
  EXPECT_TRUE(std::isinf(call1("Inf", {}).scalarValue()));
  EXPECT_TRUE(std::isnan(call1("NaN", {}).scalarValue()));
  Value I = call1("i", {});
  EXPECT_TRUE(I.isComplex());
  EXPECT_DOUBLE_EQ(I.im(0), 1);
}

TEST_F(BuiltinsTest, FprintfFormatsAndCycles) {
  callN("fprintf", {Value::str("x=%d y=%.2f\\n"), Value::scalar(3),
                    Value::scalar(1.5)},
        0);
  EXPECT_EQ(Ctx.output(), "x=3 y=1.50\n");
  Ctx.clearOutput();
  // The format cycles over remaining arguments.
  callN("fprintf", {Value::str("%d "), vec({1, 2, 3})}, 0);
  EXPECT_EQ(Ctx.output(), "1 2 3 ");
}

TEST_F(BuiltinsTest, DispStringsAndValues) {
  callN("disp", {Value::str("hello")}, 0);
  EXPECT_EQ(Ctx.output(), "hello\n");
}

TEST_F(BuiltinsTest, ErrorThrows) {
  EXPECT_THROW(callN("error", {Value::str("boom")}, 0), MatlabError);
}

TEST_F(BuiltinsTest, WrongArityThrows) {
  EXPECT_THROW(callN("sqrt", {}, 1), MatlabError);
  EXPECT_THROW(callN("sqrt", {Value::scalar(1), Value::scalar(2)}, 1),
               MatlabError);
}

TEST_F(BuiltinsTest, EigOfSymmetricMatrix) {
  Value M = Value::zeros(2, 2);
  M.reRef(0) = 2;
  M.reRef(1) = 1;
  M.reRef(2) = 1;
  M.reRef(3) = 2; // eigenvalues 1 and 3
  Value E = call1("eig", {M});
  ASSERT_EQ(E.numel(), 2u);
  EXPECT_NEAR(E.re(0), 1, 1e-9);
  EXPECT_NEAR(E.re(1), 3, 1e-9);
}

TEST_F(BuiltinsTest, DiagBothDirections) {
  Value D = call1("diag", {vec({1, 2, 3})});
  EXPECT_EQ(D.rows(), 3u);
  EXPECT_DOUBLE_EQ(D.at(1, 1), 2);
  Value Back = call1("diag", {D});
  EXPECT_EQ(Back.rows(), 3u);
  EXPECT_EQ(Back.cols(), 1u);
  EXPECT_DOUBLE_EQ(Back.re(2), 3);
}

//===----------------------------------------------------------------------===//
// Linear algebra kernels
//===----------------------------------------------------------------------===//

TEST(LinAlg, LuSolveRandomSystem) {
  Rng R(7);
  size_t N = 20;
  Value A = Value::zeros(N, N);
  Value XTrue = Value::zeros(N, 1);
  for (size_t I = 0; I != N * N; ++I)
    A.reRef(I) = R.nextDouble() - 0.5;
  for (size_t I = 0; I != N; ++I) {
    A.reRef(I * N + I) += 5.0; // diagonally dominant
    XTrue.reRef(I) = R.nextDouble();
  }
  Value B = rt::binary(rt::BinOp::MatMul, A, XTrue);
  Value X = linalg::luSolve(A, B);
  for (size_t I = 0; I != N; ++I)
    EXPECT_NEAR(X.re(I), XTrue.re(I), 1e-9);
}

TEST(LinAlg, SingularMatrixThrows) {
  Value A = Value::zeros(2, 2); // all zeros: singular
  Value B = Value::zeros(2, 1);
  EXPECT_THROW(linalg::luSolve(A, B), MatlabError);
}

TEST(LinAlg, CholeskyReconstructs) {
  // A = R' R for a known SPD matrix.
  Value A = Value::zeros(2, 2);
  A.reRef(0) = 4;
  A.reRef(1) = 2;
  A.reRef(2) = 2;
  A.reRef(3) = 3;
  Value R = linalg::cholesky(A);
  Value RtR = rt::binary(rt::BinOp::MatMul,
                         rt::unary(rt::UnOp::CTranspose, R), R);
  for (size_t I = 0; I != 4; ++I)
    EXPECT_NEAR(RtR.re(I), A.re(I), 1e-12);
  // Lower triangle of R must be zero.
  EXPECT_DOUBLE_EQ(R.at(1, 0), 0.0);
}

TEST(LinAlg, CholeskyRejectsIndefinite) {
  Value A = Value::zeros(2, 2);
  A.reRef(0) = 1;
  A.reRef(3) = -1;
  EXPECT_THROW(linalg::cholesky(A), MatlabError);
}

TEST(LinAlg, EigenvaluesSatisfyCharacteristicEquation) {
  Rng R(3);
  size_t N = 8;
  Value A = Value::zeros(N, N);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J <= I; ++J) {
      double V = R.nextDouble() - 0.5;
      A.reRef(J * N + I) = V;
      A.reRef(I * N + J) = V;
    }
  Value Eigs = linalg::symEig(A);
  // Sum of eigenvalues equals the trace.
  double Trace = 0, Sum = 0;
  for (size_t I = 0; I != N; ++I) {
    Trace += A.at(I, I);
    Sum += Eigs.re(I);
  }
  EXPECT_NEAR(Sum, Trace, 1e-9);
  // Sorted ascending.
  for (size_t I = 1; I != N; ++I)
    EXPECT_LE(Eigs.re(I - 1), Eigs.re(I) + 1e-12);
}

/// A random symmetric N x N matrix with entries in [-0.5, 0.5).
Value randomSymmetric(size_t N, uint64_t Seed) {
  Rng R(Seed);
  Value A = Value::zeros(N, N);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J <= I; ++J) {
      double V = R.nextDouble() - 0.5;
      A.reRef(J * N + I) = V;
      A.reRef(I * N + J) = V;
    }
  return A;
}

TEST(LinAlg, EigenvaluesScaleWithTheMatrix) {
  // eig(s * A) = s * eig(A): convergence must be judged relative to the
  // matrix, not against an absolute threshold.
  Value A = Value::zeros(2, 2);
  A.reRef(0) = 2;
  A.reRef(1) = 1;
  A.reRef(2) = 1;
  A.reRef(3) = 2; // eigenvalues 1 and 3
  for (double S : {1e-13, 1e-11, 1.0, 1e13}) {
    Value E = linalg::symEig(rt::binary(rt::BinOp::ElemMul, A,
                                        Value::scalar(S)));
    ASSERT_EQ(E.numel(), 2u);
    EXPECT_NEAR(E.re(0) / S, 1.0, 1e-14) << "scale " << S;
    EXPECT_NEAR(E.re(1) / S, 3.0, 1e-14) << "scale " << S;
  }
  // A random 8 x 8 matrix scaled by 1e-14 against its unscaled spectrum,
  // relative to the spectral radius; 1e-300 and 1e300, where squares of
  // the entries would under- or overflow, too.
  Value B = randomSymmetric(8, 5);
  Value Ref = linalg::symEig(B);
  double Radius = std::max(std::fabs(Ref.re(0)), std::fabs(Ref.re(7)));
  for (double S : {1e-14, 1e-300, 1e300}) {
    Value Scaled =
        linalg::symEig(rt::binary(rt::BinOp::ElemMul, B, Value::scalar(S)));
    for (size_t I = 0; I != 8; ++I)
      EXPECT_NEAR(Scaled.re(I) / S, Ref.re(I), 1e-14 * Radius)
          << "scale " << S << " eigenvalue " << I;
  }
}

/// Checks [V, D] = eig(A) through the builtin: A * V = V * D, V' * V = I,
/// D diagonal with ascending diagonal, and eig(A) the same bits as diag(D).
void expectEigendecomposition(const Value &A, const std::string &What) {
  const BuiltinDef *Eig = BuiltinTable::instance().lookup("eig");
  ASSERT_NE(Eig, nullptr);
  Context Ctx;
  const Value *Arg[] = {&A};
  std::vector<Value> VD = BuiltinTable::call(*Eig, Ctx, Arg, 2);
  std::vector<Value> E = BuiltinTable::call(*Eig, Ctx, Arg, 1);
  ASSERT_EQ(VD.size(), 2u);
  ASSERT_EQ(E.size(), 1u);
  const Value &V = VD[0], &D = VD[1];
  size_t N = A.rows();
  ASSERT_EQ(V.rows(), N) << What;
  ASSERT_EQ(V.cols(), N) << What;
  ASSERT_EQ(D.rows(), N) << What;
  ASSERT_EQ(D.cols(), N) << What;
  ASSERT_EQ(E[0].rows(), N) << What;
  ASSERT_EQ(E[0].cols(), 1u) << What;
  double Scale = 1;
  for (size_t I = 0; I != N * N; ++I)
    Scale = std::max(Scale, std::fabs(A.re(I)));
  const double Tol = 64 * static_cast<double>(N + 1) *
                     std::numeric_limits<double>::epsilon();
  Value AV = rt::binary(rt::BinOp::MatMul, A, V);
  Value VDv = rt::binary(rt::BinOp::MatMul, V, D);
  Value VtV = rt::binary(rt::BinOp::MatMul,
                         rt::unary(rt::UnOp::CTranspose, V), V);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J != N; ++J) {
      EXPECT_NEAR(AV.at(I, J), VDv.at(I, J), Tol * Scale)
          << What << " A*V vs V*D at " << I << "," << J;
      EXPECT_NEAR(VtV.at(I, J), I == J ? 1.0 : 0.0, Tol)
          << What << " V'*V at " << I << "," << J;
      if (I != J) {
        EXPECT_EQ(D.at(I, J), 0.0) << What << " D off the diagonal";
      }
    }
  for (size_t I = 0; I != N; ++I) {
    EXPECT_EQ(std::bit_cast<uint64_t>(E[0].re(I)),
              std::bit_cast<uint64_t>(D.at(I, I)))
        << What << " eig(A) vs diag(D) at " << I;
    if (I != 0) {
      EXPECT_LE(D.at(I - 1, I - 1), D.at(I, I)) << What << " order at " << I;
    }
  }
}

TEST(LinAlg, EigenvectorsDiagonalizeTheMatrix) {
  for (size_t N : {0u, 1u, 2u, 9u, 33u})
    expectEigendecomposition(randomSymmetric(N, 11 + N),
                             "random n=" + std::to_string(N));
  // mei's shape: the Gram matrix of a tall random matrix.
  Rng R(17);
  Value H = Value::zeros(65, 33);
  for (size_t I = 0; I != H.numel(); ++I)
    H.reRef(I) = R.nextDouble() - 0.5;
  expectEigendecomposition(
      rt::binary(rt::BinOp::MatMul, rt::unary(rt::UnOp::CTranspose, H), H),
      "H'*H");
  // Repeated eigenvalues: the identity, and a diagonal with ties.
  Value I5 = Value::zeros(5, 5);
  for (size_t I = 0; I != 5; ++I)
    I5.reRef(I * 5 + I) = 1;
  expectEigendecomposition(I5, "identity");
  Value Ties = Value::zeros(6, 6);
  double Diag[6] = {3, 1, 3, 2, 1, 3};
  for (size_t I = 0; I != 6; ++I)
    Ties.reRef(I * 6 + I) = Diag[I];
  expectEigendecomposition(Ties, "diagonal with ties");
  // A rank-one matrix: a triple eigenvalue 0 beside 12.
  Value Ones = Value::zeros(4, 4);
  for (size_t I = 0; I != 16; ++I)
    Ones.reRef(I) = 3;
  expectEigendecomposition(Ones, "rank one");
}

TEST(LinAlg, EigRejectsNonFiniteInput) {
  for (double Bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Value A = randomSymmetric(4, 3);
    A.reRef(2 * 4 + 1) = Bad; // only one side: the check comes first
    Value V;
    for (Value *Out : {static_cast<Value *>(nullptr), &V}) {
      try {
        linalg::symEig(A, Out);
        ADD_FAILURE() << "no error for " << Bad;
      } catch (const MatlabError &E) {
        EXPECT_EQ(E.message(), "Input to EIG must not contain NaN or Inf.");
      }
    }
  }
}

TEST(LinAlg, InverseTimesSelfIsIdentity) {
  Value A = Value::zeros(3, 3);
  double Vals[9] = {4, 1, 0, 1, 3, 1, 0, 1, 5};
  for (size_t I = 0; I != 9; ++I)
    A.reRef(I) = Vals[I];
  Value Inv = linalg::inverse(A);
  Value Prod = rt::binary(rt::BinOp::MatMul, A, Inv);
  for (size_t I = 0; I != 3; ++I)
    for (size_t J = 0; J != 3; ++J)
      EXPECT_NEAR(Prod.at(I, J), I == J ? 1.0 : 0.0, 1e-12);
}

TEST(LinAlg, DeterminantOfKnownMatrix) {
  Value A = Value::zeros(2, 2);
  A.reRef(0) = 1;
  A.reRef(1) = 3;
  A.reRef(2) = 2;
  A.reRef(3) = 4; // [1 2; 3 4], det = -2
  EXPECT_NEAR(linalg::determinant(A), -2.0, 1e-12);
}

} // namespace
