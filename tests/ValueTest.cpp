//===- tests/ValueTest.cpp - Value and resize semantics -----------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace majic;

TEST(Value, ScalarFactories) {
  Value V = Value::scalar(3.5);
  EXPECT_TRUE(V.isScalar());
  EXPECT_EQ(V.mclass(), MClass::Real);
  EXPECT_DOUBLE_EQ(V.scalarValue(), 3.5);

  Value I = Value::intScalar(4);
  EXPECT_EQ(I.mclass(), MClass::Int);

  Value B = Value::boolScalar(true);
  EXPECT_EQ(B.mclass(), MClass::Bool);
  EXPECT_DOUBLE_EQ(B.scalarValue(), 1.0);

  Value C = Value::complexScalar(1, -2);
  EXPECT_TRUE(C.isComplex());
  EXPECT_DOUBLE_EQ(C.re(0), 1.0);
  EXPECT_DOUBLE_EQ(C.im(0), -2.0);
}

TEST(Value, EmptyMatrix) {
  Value V;
  EXPECT_TRUE(V.isEmpty());
  EXPECT_EQ(V.rows(), 0u);
  EXPECT_EQ(V.cols(), 0u);
  EXPECT_FALSE(V.isTrue());
}

TEST(Value, ZerosLayoutIsColumnMajor) {
  Value V = Value::zeros(2, 3);
  V.reRef(0) = 11; // (0,0)
  V.reRef(1) = 21; // (1,0)
  V.reRef(2) = 12; // (0,1)
  EXPECT_DOUBLE_EQ(V.at(0, 0), 11);
  EXPECT_DOUBLE_EQ(V.at(1, 0), 21);
  EXPECT_DOUBLE_EQ(V.at(0, 1), 12);
}

TEST(Value, RangeBasics) {
  Value R = Value::range(1, 1, 5);
  ASSERT_EQ(R.numel(), 5u);
  EXPECT_EQ(R.rows(), 1u);
  EXPECT_EQ(R.mclass(), MClass::Int);
  EXPECT_DOUBLE_EQ(R.re(4), 5);

  Value Down = Value::range(5, -2, 0);
  ASSERT_EQ(Down.numel(), 3u); // 5 3 1
  EXPECT_DOUBLE_EQ(Down.re(2), 1);

  Value Empty = Value::range(3, 1, 2);
  EXPECT_TRUE(Empty.isEmpty());
  EXPECT_EQ(Empty.rows(), 1u);

  Value Frac = Value::range(0, 0.25, 1);
  EXPECT_EQ(Frac.numel(), 5u);
  EXPECT_EQ(Frac.mclass(), MClass::Real);
}

TEST(Value, GrowVectorPreservesAndZeroFills) {
  Value V = Value::zeros(1, 2);
  V.reRef(0) = 7;
  V.reRef(1) = 8;
  V.growTo(1, 5);
  ASSERT_EQ(V.cols(), 5u);
  EXPECT_DOUBLE_EQ(V.re(0), 7);
  EXPECT_DOUBLE_EQ(V.re(1), 8);
  EXPECT_DOUBLE_EQ(V.re(4), 0);
}

// uninit leaves its storage unwritten, so the bytes of a freed value can
// come back in a fresh one: every path that promises zeros writes them.
// Each case first frees a NaN-filled buffer of the size it allocates.
TEST(Value, ZeroPromisesHoldOnReusedMemory) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  auto FreePoisoned = [&](size_t R, size_t C) {
    Value P = Value::uninit(R, C, MClass::Complex);
    std::fill(P.reData(), P.reData() + P.numel(), NaN);
    std::fill(P.imData(), P.imData() + P.numel(), NaN);
  };
  auto AllZero = [](const Value &V) {
    for (size_t I = 0; I != V.numel(); ++I)
      if (V.re(I) != 0.0 || V.im(I) != 0.0)
        return false;
    return true;
  };
  constexpr size_t N = 48;

  FreePoisoned(N, N);
  Value Z = Value::zeros(N, N, MClass::Complex);
  EXPECT_TRUE(AllZero(Z));

  FreePoisoned(N, N);
  Value E = Value::scalar(1);
  E.resizeErase(N, N, /*WithImag=*/true);
  EXPECT_TRUE(AllZero(E));

  // In-place growth reserves Needed + Needed / 10 + 4 elements.
  FreePoisoned(1, 994);
  Value G = Value::complexScalar(0, 0);
  G.growTo(1, 900);
  EXPECT_TRUE(AllZero(G));

  // Growth that re-strides allocates exactly the new shape.
  FreePoisoned(N, N);
  Value S = Value::complexScalar(0, 0);
  S.growTo(N, N);
  EXPECT_TRUE(AllZero(S));

  FreePoisoned(N, N);
  Value C = Value::zeros(N, N);
  C.makeComplex();
  EXPECT_TRUE(AllZero(C));
}

TEST(Value, GrowMatrixRestrides) {
  Value V = Value::zeros(2, 2);
  V.reRef(0) = 1;
  V.reRef(1) = 2;
  V.reRef(2) = 3;
  V.reRef(3) = 4; // [1 3; 2 4]
  V.growTo(3, 3);
  EXPECT_DOUBLE_EQ(V.at(0, 0), 1);
  EXPECT_DOUBLE_EQ(V.at(1, 0), 2);
  EXPECT_DOUBLE_EQ(V.at(0, 1), 3);
  EXPECT_DOUBLE_EQ(V.at(1, 1), 4);
  EXPECT_DOUBLE_EQ(V.at(2, 2), 0);
}

TEST(Value, OversizingIsInvisibleButPresent) {
  // Section 2.6.1: resized arrays get ~10% slack, but size queries must
  // never observe it.
  Value V = Value::zeros(100, 1);
  V.growTo(200, 1);
  EXPECT_EQ(V.rows(), 200u);
  EXPECT_EQ(V.numel(), 200u);
  EXPECT_GE(V.capacityElems(), 220u); // 200 + 10% + 4
}

TEST(Value, RepeatedVectorGrowthAmortizes) {
  Value V = Value::zeros(1, 1);
  V.growTo(1, 1000);
  size_t CapAfterBigGrow = V.capacityElems();
  // Growing within the oversized capacity must not reallocate.
  V.growTo(1, 1050);
  EXPECT_EQ(V.capacityElems(), CapAfterBigGrow);
}

TEST(Value, ComplexPromotionAndDemotion) {
  Value V = Value::scalar(2);
  V.makeComplex();
  EXPECT_TRUE(V.isComplex());
  EXPECT_DOUBLE_EQ(V.im(0), 0.0);
  EXPECT_TRUE(V.demoteComplexIfReal());
  EXPECT_FALSE(V.isComplex());

  Value C = Value::complexScalar(1, 2);
  EXPECT_FALSE(C.demoteComplexIfReal());
}

TEST(Value, TruthinessMatchesMatlab) {
  EXPECT_TRUE(Value::scalar(2).isTrue());
  EXPECT_FALSE(Value::scalar(0).isTrue());
  Value V = Value::zeros(1, 3);
  V.reRef(0) = V.reRef(1) = V.reRef(2) = 1;
  EXPECT_TRUE(V.isTrue());
  V.reRef(1) = 0;
  EXPECT_FALSE(V.isTrue()); // all elements must be nonzero
}

TEST(Value, StringBasics) {
  Value S = Value::str("hello");
  EXPECT_TRUE(S.isString());
  EXPECT_EQ(S.rows(), 1u);
  EXPECT_EQ(S.cols(), 5u);
  EXPECT_TRUE(S.isTrue());
  Value Empty = Value::str("");
  EXPECT_TRUE(Empty.isEmpty());
}

TEST(Value, CopyOnWriteMakeUnique) {
  ValuePtr A = makeScalar(1.0);
  ValuePtr B = A;
  Value &MA = makeUnique(A);
  MA.reRef(0) = 42;
  EXPECT_DOUBLE_EQ(A->re(0), 42);
  EXPECT_DOUBLE_EQ(B->re(0), 1.0); // B untouched: copy happened
  // Uniquely owned: no copy.
  Value *Before = A.get();
  makeUnique(A);
  EXPECT_EQ(A.get(), Before);
}

TEST(Value, ScalarValueThrowsOnMatrix) {
  Value V = Value::zeros(2, 2);
  EXPECT_THROW(V.scalarValue(), MatlabError);
}
