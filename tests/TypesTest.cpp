//===- tests/TypesTest.cpp - Type lattice laws ---------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property-style tests of the Section 2.2 lattices: partial-order laws,
// join laws, and the signature safety/distance relations.
//
//===----------------------------------------------------------------------===//

#include "repo/RepoStore.h"
#include "types/Signature.h"
#include "types/Type.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

using namespace majic;

namespace {

const IntrinsicType AllIntrinsics[] = {
    IntrinsicType::Bottom, IntrinsicType::Bool,   IntrinsicType::Int,
    IntrinsicType::Real,   IntrinsicType::Complex, IntrinsicType::String,
    IntrinsicType::Top};

/// A small but structurally diverse universe of types for property sweeps.
std::vector<Type> typeUniverse() {
  std::vector<Type> U;
  U.push_back(Type::bottom());
  U.push_back(Type::top());
  U.push_back(Type::scalar(IntrinsicType::Int, Range::constant(3)));
  U.push_back(Type::scalar(IntrinsicType::Int, Range::interval(1, 10)));
  U.push_back(Type::scalar(IntrinsicType::Real, Range::interval(-2, 5)));
  U.push_back(Type::scalar(IntrinsicType::Complex));
  U.push_back(Type::scalar(IntrinsicType::Bool, Range::interval(0, 1)));
  U.push_back(Type::matrix(IntrinsicType::Real));
  U.push_back(Type::matrix(IntrinsicType::Complex));
  U.push_back(Type::exactMatrix(IntrinsicType::Real, 3, 3));
  U.push_back(Type::exactMatrix(IntrinsicType::Int, 1, 5,
                                Range::interval(0, 100)));
  U.push_back(Type(IntrinsicType::Real, ShapeBound{2, 2}, ShapeBound{10, 10},
                   Range::interval(0, 1)));
  U.push_back(Type(IntrinsicType::String, ShapeBound{1, 1},
                   ShapeBound{1, ShapeBound::kUnknownDim}, Range::top()));
  return U;
}

//===----------------------------------------------------------------------===//
// Intrinsic lattice Li
//===----------------------------------------------------------------------===//

TEST(IntrinsicLattice, ChainOrder) {
  // bot <= bool <= int <= real <= cplx <= top.
  EXPECT_TRUE(intrinsicLE(IntrinsicType::Bottom, IntrinsicType::Bool));
  EXPECT_TRUE(intrinsicLE(IntrinsicType::Bool, IntrinsicType::Int));
  EXPECT_TRUE(intrinsicLE(IntrinsicType::Int, IntrinsicType::Real));
  EXPECT_TRUE(intrinsicLE(IntrinsicType::Real, IntrinsicType::Complex));
  EXPECT_TRUE(intrinsicLE(IntrinsicType::Complex, IntrinsicType::Top));
  // bot <= strg <= top, incomparable with the numeric chain.
  EXPECT_TRUE(intrinsicLE(IntrinsicType::Bottom, IntrinsicType::String));
  EXPECT_TRUE(intrinsicLE(IntrinsicType::String, IntrinsicType::Top));
  EXPECT_FALSE(intrinsicLE(IntrinsicType::String, IntrinsicType::Complex));
  EXPECT_FALSE(intrinsicLE(IntrinsicType::Real, IntrinsicType::String));
}

TEST(IntrinsicLattice, PartialOrderLaws) {
  for (IntrinsicType A : AllIntrinsics) {
    EXPECT_TRUE(intrinsicLE(A, A)); // reflexive
    for (IntrinsicType B : AllIntrinsics) {
      if (intrinsicLE(A, B) && intrinsicLE(B, A))
        EXPECT_EQ(A, B); // antisymmetric
      for (IntrinsicType C : AllIntrinsics)
        if (intrinsicLE(A, B) && intrinsicLE(B, C))
          EXPECT_TRUE(intrinsicLE(A, C)); // transitive
    }
  }
}

TEST(IntrinsicLattice, JoinIsLeastUpperBound) {
  for (IntrinsicType A : AllIntrinsics) {
    for (IntrinsicType B : AllIntrinsics) {
      IntrinsicType J = intrinsicJoin(A, B);
      EXPECT_TRUE(intrinsicLE(A, J));
      EXPECT_TRUE(intrinsicLE(B, J));
      EXPECT_EQ(J, intrinsicJoin(B, A)); // commutative
      // Least: any other upper bound is above J.
      for (IntrinsicType U : AllIntrinsics)
        if (intrinsicLE(A, U) && intrinsicLE(B, U))
          EXPECT_TRUE(intrinsicLE(J, U));
    }
  }
}

TEST(IntrinsicLattice, StringJoinNumericIsTop) {
  EXPECT_EQ(intrinsicJoin(IntrinsicType::String, IntrinsicType::Real),
            IntrinsicType::Top);
}

//===----------------------------------------------------------------------===//
// Range lattice Ll
//===----------------------------------------------------------------------===//

TEST(RangeLattice, BottomAndTop) {
  EXPECT_TRUE(Range::bottom().isBottom());
  EXPECT_TRUE(Range::top().isTop());
  EXPECT_TRUE(Range::bottom().le(Range::constant(5)));
  EXPECT_TRUE(Range::constant(5).le(Range::top()));
  EXPECT_FALSE(Range::top().le(Range::constant(5)));
}

TEST(RangeLattice, OrderIsInclusion) {
  EXPECT_TRUE(Range::interval(2, 3).le(Range::interval(1, 4)));
  EXPECT_FALSE(Range::interval(0, 3).le(Range::interval(1, 4)));
}

TEST(RangeLattice, JoinIsHull) {
  Range J = Range::interval(1, 2).join(Range::interval(5, 6));
  EXPECT_DOUBLE_EQ(J.Lo, 1);
  EXPECT_DOUBLE_EQ(J.Hi, 6);
  EXPECT_TRUE(Range::bottom().join(Range::constant(3)).isConstant());
}

TEST(RangeLattice, IntervalArithmetic) {
  Range A = Range::interval(1, 3), B = Range::interval(-2, 4);
  Range Sum = A.add(B);
  EXPECT_DOUBLE_EQ(Sum.Lo, -1);
  EXPECT_DOUBLE_EQ(Sum.Hi, 7);
  Range Diff = A.sub(B);
  EXPECT_DOUBLE_EQ(Diff.Lo, -3);
  EXPECT_DOUBLE_EQ(Diff.Hi, 5);
  Range Prod = A.mul(B);
  EXPECT_DOUBLE_EQ(Prod.Lo, -6);
  EXPECT_DOUBLE_EQ(Prod.Hi, 12);
  // Division through zero is unbounded.
  EXPECT_TRUE(A.div(Range::interval(-1, 1)).isTop());
  Range Quot = A.div(Range::interval(2, 2));
  EXPECT_DOUBLE_EQ(Quot.Lo, 0.5);
  EXPECT_DOUBLE_EQ(Quot.Hi, 1.5);
}

TEST(RangeLattice, IntervalArithmeticIsSound) {
  // Sampled soundness: for xs in A, ys in B, x op y lies in A.op(B).
  Range A = Range::interval(-3, 2), B = Range::interval(0.5, 4);
  for (double X : {-3.0, -1.0, 0.0, 2.0}) {
    for (double Y : {0.5, 1.0, 4.0}) {
      EXPECT_TRUE(Range::constant(X + Y).le(A.add(B)));
      EXPECT_TRUE(Range::constant(X - Y).le(A.sub(B)));
      EXPECT_TRUE(Range::constant(X * Y).le(A.mul(B)));
      EXPECT_TRUE(Range::constant(X / Y).le(A.div(B)));
    }
  }
}

TEST(RangeLattice, PowConstEvenIsNonNegative) {
  Range R = Range::interval(-3, 2).powConst(2);
  EXPECT_DOUBLE_EQ(R.Lo, 0);
  EXPECT_DOUBLE_EQ(R.Hi, 9);
  Range Odd = Range::interval(-2, 3).powConst(3);
  EXPECT_DOUBLE_EQ(Odd.Lo, -8);
  EXPECT_DOUBLE_EQ(Odd.Hi, 27);
}

TEST(RangeLattice, AbsRange) {
  Range R = Range::interval(-3, 2).absRange();
  EXPECT_DOUBLE_EQ(R.Lo, 0);
  EXPECT_DOUBLE_EQ(R.Hi, 3);
  Range Pos = Range::interval(1, 2).absRange();
  EXPECT_DOUBLE_EQ(Pos.Lo, 1);
}

//===----------------------------------------------------------------------===//
// Shape lattice Ls
//===----------------------------------------------------------------------===//

TEST(ShapeLattice, ComponentwiseOrder) {
  EXPECT_TRUE(ShapeBound::exact(2, 3).le(ShapeBound::exact(2, 5)));
  EXPECT_FALSE(ShapeBound::exact(3, 3).le(ShapeBound::exact(2, 5)));
  EXPECT_TRUE(ShapeBound::bottom().le(ShapeBound::top()));
  EXPECT_TRUE(ShapeBound::exact(7, 9).le(ShapeBound::top()));
}

TEST(ShapeLattice, Joins) {
  ShapeBound A = ShapeBound::exact(2, 5), B = ShapeBound::exact(4, 3);
  ShapeBound Up = A.joinUpper(B);
  EXPECT_EQ(Up.Rows, 4u);
  EXPECT_EQ(Up.Cols, 5u);
  ShapeBound Down = A.joinLower(B);
  EXPECT_EQ(Down.Rows, 2u);
  EXPECT_EQ(Down.Cols, 3u);
}

//===----------------------------------------------------------------------===//
// The product lattice T
//===----------------------------------------------------------------------===//

TEST(TypeLattice, PartialOrderLaws) {
  auto U = typeUniverse();
  for (const Type &A : U) {
    EXPECT_TRUE(A.le(A));
    for (const Type &B : U) {
      for (const Type &C : U)
        if (A.le(B) && B.le(C))
          EXPECT_TRUE(A.le(C)) << A.str() << " / " << B.str() << " / "
                               << C.str();
    }
  }
}

TEST(TypeLattice, JoinLaws) {
  auto U = typeUniverse();
  for (const Type &A : U) {
    EXPECT_EQ(A.join(A), A); // idempotent
    for (const Type &B : U) {
      Type J = A.join(B);
      EXPECT_EQ(J, B.join(A)) << A.str() << " v " << B.str(); // commutative
      EXPECT_TRUE(A.le(J));
      EXPECT_TRUE(B.le(J));
      for (const Type &C : U) {
        // Associative.
        EXPECT_EQ(A.join(B).join(C), A.join(B.join(C)));
      }
    }
  }
}

TEST(TypeLattice, BottomIsIdentityTopAbsorbs) {
  auto U = typeUniverse();
  for (const Type &A : U) {
    EXPECT_EQ(Type::bottom().join(A), A);
    EXPECT_TRUE(A.le(Type::top()));
  }
}

TEST(TypeLattice, ConstantsAndExactShapes) {
  Type C = Type::constant(5);
  ASSERT_TRUE(C.constantValue().has_value());
  EXPECT_DOUBLE_EQ(*C.constantValue(), 5);
  EXPECT_EQ(C.intrinsic(), IntrinsicType::Int);
  EXPECT_FALSE(Type::constant(2.5).intrinsic() == IntrinsicType::Int);

  Type M = Type::exactMatrix(IntrinsicType::Real, 3, 4);
  ASSERT_TRUE(M.exactShape().has_value());
  EXPECT_EQ(M.exactShape()->Rows, 3u);
  EXPECT_FALSE(Type::matrix(IntrinsicType::Real).exactShape().has_value());
}

TEST(TypeLattice, OfValueMatchesRuntime) {
  Type S = Type::ofValue(Value::scalar(2.5));
  EXPECT_EQ(S.intrinsic(), IntrinsicType::Real);
  EXPECT_TRUE(S.isScalar());
  EXPECT_TRUE(S.range().isConstant());

  Type I = Type::ofValue(Value::intScalar(7));
  EXPECT_EQ(I.intrinsic(), IntrinsicType::Int);

  Type M = Type::ofValue(Value::zeros(3, 4));
  EXPECT_EQ(M.exactShape()->Rows, 3u);
  EXPECT_TRUE(M.range().isTop()); // matrices carry no element range

  Type C = Type::ofValue(Value::complexScalar(1, 2));
  EXPECT_EQ(C.intrinsic(), IntrinsicType::Complex);

  Type Str = Type::ofValue(Value::str("ab"));
  EXPECT_EQ(Str.intrinsic(), IntrinsicType::String);
}

//===----------------------------------------------------------------------===//
// Type signatures (Section 2.2.1)
//===----------------------------------------------------------------------===//

TEST(Signature, SafetyIsSubtyping) {
  // An int-scalar invocation runs code compiled for real scalars, never the
  // reverse.
  TypeSignature IntSig({Type::scalar(IntrinsicType::Int, Range::constant(3))});
  TypeSignature RealSig({Type::scalar(IntrinsicType::Real)});
  TypeSignature TopSig = TypeSignature::generic(1);
  EXPECT_TRUE(IntSig.safeFor(RealSig));
  EXPECT_FALSE(RealSig.safeFor(IntSig));
  EXPECT_TRUE(RealSig.safeFor(TopSig));
  EXPECT_TRUE(IntSig.safeFor(TopSig));
  EXPECT_FALSE(TopSig.safeFor(IntSig));
}

TEST(Signature, ArityMismatchNeverSafe) {
  TypeSignature One({Type::top()});
  TypeSignature Two({Type::top(), Type::top()});
  EXPECT_FALSE(One.safeFor(Two));
}

TEST(Signature, MatrixShapeSafety) {
  TypeSignature Actual({Type::exactMatrix(IntrinsicType::Real, 3, 3)});
  TypeSignature Exact3({Type::exactMatrix(IntrinsicType::Real, 3, 3)});
  TypeSignature AnyReal({Type::matrix(IntrinsicType::Real)});
  TypeSignature Exact4({Type::exactMatrix(IntrinsicType::Real, 4, 4)});
  EXPECT_TRUE(Actual.safeFor(Exact3));
  EXPECT_TRUE(Actual.safeFor(AnyReal));
  EXPECT_FALSE(Actual.safeFor(Exact4));
}

TEST(Signature, DistancePrefersTighterMatch) {
  // The locator's Manhattan heuristic: tighter signatures are closer.
  TypeSignature Actual({Type::scalar(IntrinsicType::Int, Range::constant(3))});
  TypeSignature ExactMatch(
      {Type::scalar(IntrinsicType::Int, Range::constant(3))});
  TypeSignature IntAny({Type::scalar(IntrinsicType::Int)});
  TypeSignature RealAny({Type::scalar(IntrinsicType::Real)});
  TypeSignature Generic = TypeSignature::generic(1);

  double D0 = Actual.distance(ExactMatch);
  double D1 = Actual.distance(IntAny);
  double D2 = Actual.distance(RealAny);
  double D3 = Actual.distance(Generic);
  EXPECT_EQ(D0, 0);
  EXPECT_LT(D0, D1);
  EXPECT_LT(D1, D2);
  EXPECT_LT(D2, D3);
}

TEST(Signature, OfValuesRoundTrip) {
  std::vector<ValuePtr> Args = {makeScalar(2.5), makeValue(Value::zeros(2, 3))};
  TypeSignature Sig = TypeSignature::ofValues(Args);
  ASSERT_EQ(Sig.size(), 2u);
  EXPECT_TRUE(Sig[0].isScalar());
  EXPECT_EQ(Sig[1].exactShape()->Cols, 3u);
  // An invocation is always safe for its own signature.
  EXPECT_TRUE(Sig.safeFor(Sig));
}

// The engine renders a signature past its own cap only when mayRenderSame
// allows a match with a rendering the profile holds, so a false answer
// must mean the renderings differ. %g keeps six digits: 1 and 1 + 1e-7
// render alike, as do 0 and -0 under ==, while 0 and -0 render apart.
TEST(Signature, MayRenderSameNeverMissesAnEqualRendering) {
  std::vector<Type> Ts = {Type::bottom(), Type::top(),
                          Type::scalar(IntrinsicType::Real),
                          Type::scalar(IntrinsicType::Int),
                          Type::matrix(IntrinsicType::Real),
                          Type::ofValue(Value::zeros(2, 3)),
                          Type::ofValue(Value::zeros(3, 2)),
                          Type::scalar(IntrinsicType::Real,
                                       Range::interval(-2, 1e300))};
  for (double V : {0.0, -0.0, 1.0, 1.0 + 1e-7, 1.0 + 1e-4, 0.1 + 0.2, 0.3,
                   2.0, -2.0, 123456.5, 123457.0, 1e300, 1e-300, 4.9e-324,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    Ts.push_back(Type::constant(V));
    Ts.push_back(Type::scalar(IntrinsicType::Real, Range::constant(V)));
    Ts.push_back(Type::ofValue(Value::intScalar(V)));
  }
  size_t Apart = 0;
  for (const Type &A : Ts)
    for (const Type &B : Ts) {
      const TypeSignature SA({A, B}), SB({B, A});
      if (SA.str() == SB.str()) {
        EXPECT_TRUE(SA.mayRenderSame(SB)) << SA.str();
      }
      Apart += !SA.mayRenderSame(SB);
      if (A.str() == B.str()) {
        EXPECT_TRUE(A.mayRenderSame(B)) << A.str();
      }
    }
  // The filter has to reject distinct integer constants to be any use.
  EXPECT_FALSE(Type::constant(2).mayRenderSame(Type::constant(3)));
  const Type Near1 = Type::scalar(IntrinsicType::Real, Range::constant(1));
  const Type Near2 =
      Type::scalar(IntrinsicType::Real, Range::constant(1 + 1e-7));
  EXPECT_EQ(Near1.str(), Near2.str());
  EXPECT_TRUE(Near1.mayRenderSame(Near2));
  EXPECT_GT(Apart, Ts.size() * Ts.size() / 2);
  EXPECT_FALSE(TypeSignature({Type::constant(1)})
                   .mayRenderSame(TypeSignature(
                       {Type::constant(1), Type::constant(1)})));
}

// Type::str renders by hand; these are the bytes the format()-based
// rendering gave, pinned, because profile keys, traces and explain reports
// are these strings.
TEST(Types, StrRenderingIsPinned) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const uint64_t U = ShapeBound::kUnknownDim;
  const std::pair<Type, const char *> Cases[] = {
      {Type::bottom(), "bot"},
      {Type::top(), "top [0x0,*x*]"},
      {Type::matrix(IntrinsicType::Real), "real [0x0,*x*]"},
      {Type(IntrinsicType::Complex, ShapeBound::exact(0, 1),
            ShapeBound::exact(U, 1), Range::top()),
       "cplx [0x1,*x1]"},
      {Type(IntrinsicType::String, ShapeBound::exact(1, 0),
            ShapeBound::exact(1, U - 1), Range::top()),
       "strg [1x0,1x18446744073709551614]"},
      {Type(IntrinsicType::Int, ShapeBound::exact(U - 1, U - 1),
            ShapeBound::exact(U - 1, U), Range::constant(3)),
       "int [18446744073709551614x18446744073709551614,"
       "18446744073709551614x*] <3,3>"},
      {Type::scalar(IntrinsicType::Real, Range::constant(-0.0)),
       "real [1x1,1x1] <-0,-0>"},
      {Type::scalar(IntrinsicType::Real, Range::interval(-0.0, 0.0)),
       "real [1x1,1x1] <-0,0>"},
      {Type::scalar(IntrinsicType::Real, Range::interval(1e-5, 1e21)),
       "real [1x1,1x1] <1e-05,1e+21>"},
      {Type::scalar(IntrinsicType::Real, Range::constant(0.1 + 0.2)),
       "real [1x1,1x1] <0.3,0.3>"},
      {Type::scalar(IntrinsicType::Real, Range::interval(-Inf, 2.5)),
       "real [1x1,1x1] <-inf,2.5>"},
      {Type::scalar(IntrinsicType::Real, Range::interval(-1e300, Inf)),
       "real [1x1,1x1] <-1e+300,inf>"},
      {Type::scalar(IntrinsicType::Real, Range::interval(0, NaN)),
       "real [1x1,1x1] <0,nan>"},
      {Type::scalar(IntrinsicType::Real, Range::interval(-Inf, -NaN)),
       "real [1x1,1x1] <-inf,-nan>"},
      {Type::scalar(IntrinsicType::Bool, Range::bottom()), "bool [1x1,1x1] <>"},
      {Type::scalar(IntrinsicType::Int, Range::interval(123456, 1234567)),
       "int [1x1,1x1] <123456,1.23457e+06>"},
      {Type::scalar(IntrinsicType::Real,
                    Range::interval(5e-324, 1.7976931348623157e308)),
       "real [1x1,1x1] <4.94066e-324,1.79769e+308>"},
      {Type::scalar(IntrinsicType::Real, Range::interval(-999999.5, 0.0001)),
       "real [1x1,1x1] <-1e+06,0.0001>"},
      {Type::exactMatrix(IntrinsicType::Real, 120, 60), "real [120x60,120x60]"},
  };
  for (const auto &[T, Want] : Cases)
    EXPECT_EQ(T.str(), Want);
  EXPECT_EQ(TypeSignature({Cases[2].first, Cases[8].first, Cases[0].first})
                .str(),
            "(real [0x0,*x*], real [1x1,1x1] <1e-05,1e+21>, bot)");

  // profiles.mjp stores the types and re-renders their strings at load:
  // a saved profile reads back with the pinned strings.
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "majic_types_pinned";
  std::filesystem::remove_all(Dir);
  std::vector<RepoStore::ProfileSummary> Saved;
  for (const auto &[T, Want] : Cases) {
    RepoStore::ProfileSummary PS;
    PS.Name = "f" + std::to_string(Saved.size());
    PS.Invocations = 1;
    PS.Sigs.push_back({TypeSignature({T}), "", 1, std::nullopt});
    Saved.push_back(std::move(PS));
  }
  ASSERT_TRUE(RepoStore(Dir.string()).saveProfiles(Saved));
  std::vector<RepoStore::ProfileSummary> Loaded =
      RepoStore(Dir.string()).loadProfiles();
  ASSERT_EQ(Loaded.size(), std::size(Cases));
  for (size_t I = 0; I != Loaded.size(); ++I) {
    ASSERT_EQ(Loaded[I].Sigs.size(), 1u);
    EXPECT_EQ(Loaded[I].Sigs[0].SigStr,
              std::string("(") + Cases[I].second + ")");
  }
  std::filesystem::remove_all(Dir);
}

} // namespace
