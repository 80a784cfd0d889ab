//===- tests/OpsTest.cpp - Polymorphic operation semantics --------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Ops.h"
#include "support/ResourceGuard.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

using namespace majic;
using namespace majic::rt;

namespace {

Value rowVec(std::initializer_list<double> Xs) {
  Value V = Value::zeros(1, Xs.size());
  size_t I = 0;
  for (double X : Xs)
    V.reRef(I++) = X;
  return V;
}

Value colVec(std::initializer_list<double> Xs) {
  Value V = Value::zeros(Xs.size(), 1);
  size_t I = 0;
  for (double X : Xs)
    V.reRef(I++) = X;
  return V;
}

Value mat22(double A, double B, double C, double D) {
  Value V = Value::zeros(2, 2);
  V.reRef(0) = A; // (0,0)
  V.reRef(1) = C; // (1,0)
  V.reRef(2) = B; // (0,1)
  V.reRef(3) = D; // (1,1)
  return V;
}

} // namespace

TEST(Ops, ScalarArithmetic) {
  EXPECT_DOUBLE_EQ(
      binary(BinOp::Add, Value::scalar(2), Value::scalar(3)).scalarValue(), 5);
  EXPECT_DOUBLE_EQ(
      binary(BinOp::Sub, Value::scalar(2), Value::scalar(3)).scalarValue(), -1);
  EXPECT_DOUBLE_EQ(
      binary(BinOp::MatMul, Value::scalar(2), Value::scalar(3)).scalarValue(),
      6);
  EXPECT_DOUBLE_EQ(
      binary(BinOp::MatRDiv, Value::scalar(1), Value::scalar(4)).scalarValue(),
      0.25);
}

TEST(Ops, IntClassPreservation) {
  Value R = binary(BinOp::Add, Value::intScalar(2), Value::intScalar(3));
  EXPECT_EQ(R.mclass(), MClass::Int);
  Value R2 = binary(BinOp::Add, Value::intScalar(2), Value::scalar(3.5));
  EXPECT_EQ(R2.mclass(), MClass::Real);
  // Division never preserves int.
  Value R3 = binary(BinOp::ElemRDiv, Value::intScalar(4), Value::intScalar(2));
  EXPECT_EQ(R3.mclass(), MClass::Real);
}

TEST(Ops, ScalarMatrixBroadcast) {
  Value M = mat22(1, 2, 3, 4);
  Value R = binary(BinOp::Add, M, Value::scalar(10));
  EXPECT_DOUBLE_EQ(R.at(0, 0), 11);
  EXPECT_DOUBLE_EQ(R.at(1, 1), 14);
}

TEST(Ops, ShapeMismatchThrows) {
  EXPECT_THROW(binary(BinOp::Add, rowVec({1, 2, 3}), rowVec({1, 2})),
               MatlabError);
}

TEST(Ops, MatrixMultiply) {
  Value A = mat22(1, 2, 3, 4);
  Value B = mat22(5, 6, 7, 8);
  Value C = binary(BinOp::MatMul, A, B);
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  EXPECT_DOUBLE_EQ(C.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(C.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(C.at(1, 1), 50);
}

TEST(Ops, MatrixVectorMultiply) {
  Value A = mat22(1, 2, 3, 4);
  Value X = colVec({1, 1});
  Value Y = binary(BinOp::MatMul, A, X);
  EXPECT_EQ(Y.rows(), 2u);
  EXPECT_EQ(Y.cols(), 1u);
  EXPECT_DOUBLE_EQ(Y.re(0), 3);
  EXPECT_DOUBLE_EQ(Y.re(1), 7);
}

TEST(Ops, InnerDimensionMismatchThrows) {
  EXPECT_THROW(binary(BinOp::MatMul, mat22(1, 2, 3, 4), rowVec({1, 2})),
               MatlabError);
}

TEST(Ops, ComplexArithmetic) {
  Value A = Value::complexScalar(1, 2);
  Value B = Value::complexScalar(3, -1);
  Value P = binary(BinOp::ElemMul, A, B);
  // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
  EXPECT_DOUBLE_EQ(P.re(0), 5);
  EXPECT_DOUBLE_EQ(P.im(0), 5);
}

TEST(Ops, PowerEscalatesToComplex) {
  // (-8)^(1/3) is complex in MATLAB.
  Value R = binary(BinOp::MatPow, Value::scalar(-8), Value::scalar(1.0 / 3));
  EXPECT_TRUE(R.isComplex());
  EXPECT_NEAR(R.re(0), 1.0, 1e-9);
  EXPECT_NEAR(R.im(0), std::sqrt(3.0), 1e-9);
  // Integer exponents stay real.
  Value R2 = binary(BinOp::MatPow, Value::scalar(-2), Value::scalar(3));
  EXPECT_FALSE(R2.isComplex());
  EXPECT_DOUBLE_EQ(R2.scalarValue(), -8);
}

TEST(Ops, MatrixPower) {
  Value A = mat22(1, 1, 0, 1);
  Value R = binary(BinOp::MatPow, A, Value::scalar(3));
  // [1 1; 0 1]^3 = [1 3; 0 1]
  EXPECT_DOUBLE_EQ(R.at(0, 1), 3);
  EXPECT_DOUBLE_EQ(R.at(1, 0), 0);
}

TEST(Ops, ComparisonsIgnoreImaginaryParts) {
  // Section 2.5: relational operators disregard imaginary components.
  Value A = Value::complexScalar(1, 100);
  Value B = Value::complexScalar(2, -100);
  EXPECT_DOUBLE_EQ(binary(BinOp::Lt, A, B).scalarValue(), 1.0);
  // Eq compares full complex values.
  EXPECT_DOUBLE_EQ(binary(BinOp::Eq, A, A).scalarValue(), 1.0);
  EXPECT_DOUBLE_EQ(binary(BinOp::Eq, A, B).scalarValue(), 0.0);
}

TEST(Ops, ComparisonYieldsBoolMatrix) {
  Value R = binary(BinOp::Gt, rowVec({1, 5, 3}), Value::scalar(2));
  EXPECT_EQ(R.mclass(), MClass::Bool);
  EXPECT_DOUBLE_EQ(R.re(0), 0);
  EXPECT_DOUBLE_EQ(R.re(1), 1);
  EXPECT_DOUBLE_EQ(R.re(2), 1);
}

TEST(Ops, TransposeAndConjugate) {
  Value A = Value::zeros(1, 2, MClass::Complex);
  A.reRef(0) = 1;
  A.imRef(0) = 2;
  A.reRef(1) = 3;
  A.imRef(1) = 4;
  Value CT = unary(UnOp::CTranspose, A);
  EXPECT_EQ(CT.rows(), 2u);
  EXPECT_DOUBLE_EQ(CT.im(0), -2); // conjugated
  Value T = unary(UnOp::Transpose, A);
  EXPECT_DOUBLE_EQ(T.im(0), 2); // not conjugated
}

TEST(Ops, TiledTransposeIsAnExactCopy) {
  // Shapes on, across and inside the 16 x 16 tile boundary, a power-of-two
  // square, and empties; every element, the sign of zeros and NaNs, and the
  // class must match an element-by-element transpose.
  struct Shape {
    size_t R, C;
  };
  for (Shape S : {Shape{0, 3}, Shape{3, 0}, Shape{1, 1}, Shape{1, 40},
                  Shape{40, 1}, Shape{16, 16}, Shape{37, 50}, Shape{64, 64}}) {
    for (MClass Cls : {MClass::Real, MClass::Int, MClass::Bool,
                       MClass::Complex}) {
      Value A = Value::zeros(S.R, S.C, Cls);
      for (size_t I = 0; I != A.numel(); ++I) {
        A.reRef(I) = Cls == MClass::Bool ? double(I % 2) : double(I) - 7.0;
        if (Cls == MClass::Complex)
          A.imRef(I) = I % 5 ? double(I) * 0.5 : -0.0;
      }
      if (A.numel() > 3 && Cls != MClass::Bool)
        A.reRef(3) = -std::numeric_limits<double>::quiet_NaN();
      for (UnOp Op : {UnOp::Transpose, UnOp::CTranspose}) {
        Value T = unary(Op, A);
        ASSERT_EQ(T.rows(), S.C);
        ASSERT_EQ(T.cols(), S.R);
        EXPECT_EQ(T.mclass(), Cls);
        bool Conj = Op == UnOp::CTranspose && Cls == MClass::Complex;
        for (size_t R = 0; R != S.R; ++R)
          for (size_t C = 0; C != S.C; ++C) {
            double Re = A.at(R, C), Im = A.atIm(R, C);
            if (Conj)
              Im = -Im;
            EXPECT_EQ(std::memcmp(&Re, &T.reData()[R * S.C + C], 8), 0);
            if (Cls == MClass::Complex)
              EXPECT_EQ(std::memcmp(&Im, &T.imData()[R * S.C + C], 8), 0);
          }
      }
    }
  }
}

TEST(Ops, MatLDivSolvesSystems) {
  Value A = mat22(2, 0, 0, 4);
  Value B = colVec({2, 8});
  Value X = binary(BinOp::MatLDiv, A, B);
  EXPECT_NEAR(X.re(0), 1, 1e-12);
  EXPECT_NEAR(X.re(1), 2, 1e-12);
}

TEST(Ops, ColonUsesRealPartOnly) {
  // Section 2.5 hint #1: colon silently ignores imaginary parts.
  Value R = colon(Value::complexScalar(1, 9), Value::complexScalar(3, -5));
  EXPECT_EQ(R.numel(), 3u);
  EXPECT_DOUBLE_EQ(R.re(2), 3);
}

TEST(Ops, Concatenation) {
  const Value A = rowVec({1, 2});
  const Value B = rowVec({3});
  const Value *Hs[] = {&A, &B};
  Value H = horzcat(Hs);
  EXPECT_EQ(H.cols(), 3u);
  EXPECT_DOUBLE_EQ(H.re(2), 3);

  const Value C = rowVec({1, 2});
  const Value D = rowVec({3, 4});
  const Value *Vs[] = {&C, &D};
  Value V = vertcat(Vs);
  EXPECT_EQ(V.rows(), 2u);
  EXPECT_DOUBLE_EQ(V.at(1, 0), 3);
  EXPECT_DOUBLE_EQ(V.at(1, 1), 4);
}

TEST(Ops, ConcatenationMismatchThrows) {
  const Value A = rowVec({1, 2});
  const Value B = colVec({1, 2});
  const Value *Vs[] = {&A, &B};
  EXPECT_THROW(vertcat(Vs), MatlabError);
}

TEST(Ops, StringConcatenation) {
  const Value A = Value::str("ab");
  const Value B = Value::str("cd");
  const Value *Hs[] = {&A, &B};
  Value H = horzcat(Hs);
  EXPECT_TRUE(H.isString());
  EXPECT_EQ(H.stringValue(), "abcd");
}

TEST(Ops, EmptyPartsAbsorbedInConcat) {
  const Value A = rowVec({1, 2});
  const Value E;
  const Value *Hs[] = {&E, &A};
  Value H = horzcat(Hs);
  EXPECT_EQ(H.numel(), 2u);
}

TEST(Indexing, LinearRead) {
  Value M = mat22(1, 2, 3, 4); // column-major: 1 3 2 4
  Value R = rt::index1(M, Indexer::single(2));
  EXPECT_DOUBLE_EQ(R.scalarValue(), 2); // third element, column-major
}

TEST(Indexing, TwoDimRead) {
  Value M = mat22(1, 2, 3, 4);
  Value R = rt::index2(M, Indexer::single(0), Indexer::single(1));
  EXPECT_DOUBLE_EQ(R.scalarValue(), 2);
}

TEST(Indexing, ColonRead) {
  Value M = mat22(1, 2, 3, 4);
  Value Col = rt::index2(M, Indexer::colon(), Indexer::single(1));
  EXPECT_EQ(Col.rows(), 2u);
  EXPECT_DOUBLE_EQ(Col.re(0), 2);
  EXPECT_DOUBLE_EQ(Col.re(1), 4);
  // A(:) is always a column vector.
  Value All = rt::index1(M, Indexer::colon());
  EXPECT_EQ(All.rows(), 4u);
  EXPECT_EQ(All.cols(), 1u);
}

TEST(Indexing, OutOfBoundsReadThrows) {
  Value M = mat22(1, 2, 3, 4);
  EXPECT_THROW(rt::index1(M, Indexer::single(4)), MatlabError);
  EXPECT_THROW(rt::index2(M, Indexer::single(2), Indexer::single(0)),
               MatlabError);
}

TEST(Indexing, BadSubscriptThrows) {
  EXPECT_THROW(checkSubscript(0), MatlabError);
  EXPECT_THROW(checkSubscript(-3), MatlabError);
  EXPECT_THROW(checkSubscript(1.5), MatlabError);
  EXPECT_EQ(checkSubscript(3), 2u);
}

TEST(Indexing, LogicalIndexSelectsNonzero) {
  Value V = rowVec({10, 20, 30});
  Value Mask = rowVec({1, 0, 1});
  Mask.setClass(MClass::Bool);
  Indexer I = Indexer::fromValue(Mask, V.numel());
  Value R = rt::index1(V, I);
  EXPECT_EQ(R.numel(), 2u);
  EXPECT_DOUBLE_EQ(R.re(1), 30);
}

TEST(Indexing, AssignGrowsVector) {
  Value V = rowVec({1});
  rt::indexAssign1(V, Indexer::single(4), Value::scalar(9));
  EXPECT_EQ(V.cols(), 5u);
  EXPECT_DOUBLE_EQ(V.re(4), 9);
  EXPECT_DOUBLE_EQ(V.re(2), 0); // zero-filled gap
}

TEST(Indexing, AssignGrowsMatrixIn2D) {
  Value M = mat22(1, 2, 3, 4);
  rt::indexAssign2(M, Indexer::single(2), Indexer::single(2),
                   Value::scalar(9));
  EXPECT_EQ(M.rows(), 3u);
  EXPECT_EQ(M.cols(), 3u);
  EXPECT_DOUBLE_EQ(M.at(2, 2), 9);
  EXPECT_DOUBLE_EQ(M.at(0, 0), 1); // preserved
}

TEST(Indexing, LinearGrowOfMatrixThrows) {
  Value M = mat22(1, 2, 3, 4);
  EXPECT_THROW(rt::indexAssign1(M, Indexer::single(10), Value::scalar(1)),
               MatlabError);
}

TEST(Indexing, AssignComplexPromotesBase) {
  Value V = rowVec({1, 2});
  rt::indexAssign1(V, Indexer::single(0), Value::complexScalar(0, 1));
  EXPECT_TRUE(V.isComplex());
  EXPECT_DOUBLE_EQ(V.im(0), 1);
  EXPECT_DOUBLE_EQ(V.im(1), 0);
}

TEST(Indexing, ColonAssignWholeColumn) {
  Value M = mat22(1, 2, 3, 4);
  rt::indexAssign2(M, Indexer::colon(), Indexer::single(0), colVec({7, 8}));
  EXPECT_DOUBLE_EQ(M.at(0, 0), 7);
  EXPECT_DOUBLE_EQ(M.at(1, 0), 8);
  EXPECT_DOUBLE_EQ(M.at(0, 1), 2);
}

TEST(Indexing, CountMismatchThrows) {
  Value V = rowVec({1, 2, 3});
  EXPECT_THROW(rt::indexAssign1(V, Indexer::single(0), rowVec({1, 2})),
               MatlabError);
}

//===----------------------------------------------------------------------===//
// One-element results skip the parallel region. They must give the same
// bits, class and error text as the same element of a 1xN operation.
//===----------------------------------------------------------------------===//

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Scalars over the IEEE corners in every numeric class.
std::vector<Value> cornerScalars() {
  std::vector<Value> Out;
  for (double X : {0.0, -0.0, 1.0, -2.5, 3.0, 0.5, kNaN, kInf, -kInf})
    Out.push_back(Value::scalar(X));
  for (double X : {0.0, 1.0, -2.0, 3.0})
    Out.push_back(Value::intScalar(X));
  Out.push_back(Value::boolScalar(false));
  Out.push_back(Value::boolScalar(true));
  for (double X : {-0.0, 2.0, -1.5, kNaN, kInf})
    for (double Y : {-0.0, 1.5, -kInf})
      Out.push_back(Value::complexScalar(X, Y));
  return Out;
}

/// A 1xN row repeating scalar \p S, class included.
Value repeated(const Value &S, size_t N) {
  Value V = Value::zeros(1, N, S.mclass());
  for (size_t I = 0; I != N; ++I) {
    V.reRef(I) = S.re(0);
    if (S.isComplex())
      V.imRef(I) = S.im(0);
  }
  return V;
}

struct OpOutcome {
  std::string Error;
  Value V;
};

OpOutcome outcomeOf(const std::function<Value()> &Op) {
  try {
    return {"", Op()};
  } catch (const MatlabError &E) {
    return {E.message(), Value()};
  }
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// \p One (a 1x1 result) against element \p K of \p Many.
void expectElementOf(const OpOutcome &One, const OpOutcome &Many, size_t K,
                     const std::string &What) {
  EXPECT_EQ(One.Error, Many.Error) << What;
  if (!One.Error.empty() || !Many.Error.empty())
    return;
  ASSERT_EQ(One.V.numel(), 1u) << What;
  ASSERT_GT(Many.V.numel(), K) << What;
  EXPECT_EQ(One.V.mclass(), Many.V.mclass()) << What;
  EXPECT_TRUE(sameBits(One.V.re(0), Many.V.re(K))) << What;
  EXPECT_TRUE(sameBits(One.V.im(0), Many.V.im(K))) << What;
}

} // namespace

TEST(ScalarPath, BinaryOpsMatchTheirVectorForm) {
  constexpr size_t N = 3;
  const std::vector<Value> Xs = cornerScalars();
  for (uint8_t OpId = 0; OpId <= static_cast<uint8_t>(BinOp::Or); ++OpId) {
    const BinOp Op = static_cast<BinOp>(OpId);
    if (Op == BinOp::MatPow)
      continue; // not elementwise on a vector
    // Matrix ops are elementwise only with a scalar on the right side.
    const bool VecLeft = Op != BinOp::MatLDiv;
    const bool VecRight = Op != BinOp::MatRDiv;
    const bool VecBoth = VecLeft && VecRight && Op != BinOp::MatMul;
    for (const Value &A : Xs)
      for (const Value &B : Xs) {
        const std::string What = std::string(binOpName(Op)) + " " +
                                 mclassName(A.mclass()) + "(" +
                                 std::to_string(A.re(0)) + ") " +
                                 mclassName(B.mclass()) + "(" +
                                 std::to_string(B.re(0)) + ")";
        OpOutcome One = outcomeOf([&] { return binary(Op, A, B); });
        const Value AN = repeated(A, N), BN = repeated(B, N);
        if (VecLeft) {
          OpOutcome M = outcomeOf([&] { return binary(Op, AN, B); });
          expectElementOf(One, M, N - 1, What + " [vec, scalar]");
        }
        if (VecRight) {
          OpOutcome M = outcomeOf([&] { return binary(Op, A, BN); });
          expectElementOf(One, M, 1, What + " [scalar, vec]");
        }
        if (VecBoth) {
          OpOutcome M = outcomeOf([&] { return binary(Op, AN, BN); });
          expectElementOf(One, M, 0, What + " [vec, vec]");
        }
      }
  }
}

TEST(ScalarPath, UnaryOpsMatchTheirVectorForm) {
  for (UnOp Op : {UnOp::Neg, UnOp::Plus, UnOp::Not, UnOp::CTranspose,
                  UnOp::Transpose})
    for (const Value &A : cornerScalars()) {
      const std::string What =
          std::string(unOpName(Op)) + " " + mclassName(A.mclass());
      OpOutcome One = outcomeOf([&] { return unary(Op, A); });
      OpOutcome M = outcomeOf([&] { return unary(Op, repeated(A, 3)); });
      expectElementOf(One, M, 2, What);
    }
}

TEST(ScalarPath, PendingInterruptStopsScalarOps) {
  struct ClearOnExit {
    ~ClearOnExit() { exec::clearInterrupt(); }
  } Guard;
  exec::requestInterrupt();
  for (BinOp Op : {BinOp::Add, BinOp::ElemMul, BinOp::Lt, BinOp::And}) {
    OpOutcome R = outcomeOf(
        [&] { return binary(Op, Value::scalar(1), Value::scalar(2)); });
    EXPECT_EQ(R.Error, "execution interrupted") << binOpName(Op);
  }
  exec::clearInterrupt();
  EXPECT_DOUBLE_EQ(
      binary(BinOp::Add, Value::scalar(1), Value::scalar(2)).scalarValue(), 3);
}

