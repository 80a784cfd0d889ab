//===- infer/TypeCalculator.cpp - The type calculator -------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "infer/TypeCalculator.h"

#include "runtime/Builtins.h"
#include "support/StringUtils.h"

#include <cmath>

using namespace majic;
using rt::BinOp;

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

Type InferOptions::normalize(Type T) const {
  if (!EnableRanges)
    T.setRange(T.range().isBottom() ? Range::bottom() : Range::top());
  // Disabling minimum-shape propagation drops array lower bounds (killing
  // subscript-check removal and small-vector unrolling) but keeps provable
  // scalarness, which is upper-bound information.
  if (!EnableMinShapes && !(T.maxShape() == ShapeBound::scalar()))
    T.setShape(ShapeBound::bottom(), T.maxShape());
  return T;
}

//===----------------------------------------------------------------------===//
// Shared predicates and shape combinators
//===----------------------------------------------------------------------===//

namespace {

bool scalarOf(const Type &T, IntrinsicType IT) {
  return !T.isBottom() && T.isScalar() && intrinsicLE(T.intrinsic(), IT);
}

bool numericOf(const Type &T, IntrinsicType IT) {
  return !T.isBottom() && intrinsicLE(T.intrinsic(), IT);
}

bool intScalar(const Type &T) { return scalarOf(T, IntrinsicType::Int); }
bool realScalar(const Type &T) { return scalarOf(T, IntrinsicType::Real); }
bool cplxScalar(const Type &T) { return scalarOf(T, IntrinsicType::Complex); }
bool realArray(const Type &T) { return numericOf(T, IntrinsicType::Real); }
bool cplxArray(const Type &T) { return numericOf(T, IntrinsicType::Complex); }

/// Could the value be a scalar (1x1 within [min, max])?
bool mayBeScalar(const Type &T) {
  return T.minShape().le(ShapeBound::scalar()) &&
         ShapeBound::scalar().le(T.maxShape());
}

/// Shape bounds of an element-wise operation with MATLAB's scalar
/// broadcasting.
void elemShapes(const Type &A, const Type &B, ShapeBound &Min,
                ShapeBound &Max) {
  if (A.isScalar()) {
    Min = B.minShape();
    Max = B.maxShape();
    return;
  }
  if (B.isScalar()) {
    Min = A.minShape();
    Max = A.maxShape();
    return;
  }
  if (!mayBeScalar(A) && !mayBeScalar(B)) {
    // Both are arrays: shapes must agree at runtime, so both bound sets
    // constrain the result.
    Min = A.minShape().joinUpper(B.minShape());
    Max = A.maxShape().joinLower(B.maxShape());
    return;
  }
  // One side might be a scalar: only the loose join is sound.
  Min = A.minShape().joinLower(B.minShape());
  Max = A.maxShape().joinUpper(B.maxShape());
}

Type elemResult(const Type &A, const Type &B, IntrinsicType IT, Range R) {
  ShapeBound Min, Max;
  elemShapes(A, B, Min, Max);
  return Type(IT, Min, Max, R);
}

IntrinsicType joinNumeric(const Type &A, const Type &B, bool IntPreserving) {
  IntrinsicType J = intrinsicJoin(A.intrinsic(), B.intrinsic());
  if (J == IntrinsicType::Bool)
    J = IntrinsicType::Int; // arithmetic promotes logicals
  if (!IntPreserving && intrinsicLE(J, IntrinsicType::Int))
    J = IntrinsicType::Real;
  if (IntPreserving && J == IntrinsicType::Int)
    return IntrinsicType::Int;
  return J;
}

Range divRange(const Range &A, const Range &B) { return A.div(B); }
Range ldivRange(const Range &A, const Range &B) { return B.div(A); }

} // namespace

//===----------------------------------------------------------------------===//
// Registry plumbing
//===----------------------------------------------------------------------===//

void TypeCalculator::addBinary(
    BinOp Op, std::string Name,
    std::function<bool(const Type &, const Type &)> Pre,
    std::function<Type(const Type &, const Type &)> Apply) {
  BinaryRules[static_cast<uint8_t>(Op)].push_back(
      {std::move(Name), std::move(Pre), std::move(Apply)});
  ++RuleCount;
}

void TypeCalculator::addUnary(UnaryOpKind Op, std::string Name,
                              std::function<bool(const Type &)> Pre,
                              std::function<Type(const Type &)> Apply) {
  UnaryRules[static_cast<uint8_t>(Op)].push_back(
      {std::move(Name), std::move(Pre), std::move(Apply)});
  ++RuleCount;
}

void TypeCalculator::addBuiltin(
    std::string Builtin, std::string Name,
    std::function<bool(std::span<const Type>)> Pre,
    std::function<std::vector<Type>(std::span<const Type>, size_t)> Apply,
    bool Optimistic) {
  BuiltinRules[std::move(Builtin)].push_back(
      {std::move(Name), std::move(Pre), std::move(Apply), Optimistic});
  ++RuleCount;
}

const TypeCalculator &TypeCalculator::instance() {
  static TypeCalculator Calc;
  return Calc;
}

unsigned TypeCalculator::numRules() const { return RuleCount; }

Type TypeCalculator::binary(BinOp Op, const Type &A, const Type &B,
                            const InferOptions &Opts) const {
  auto It = BinaryRules.find(static_cast<uint8_t>(Op));
  if (It != BinaryRules.end())
    for (const BinaryRule &R : It->second)
      if (R.Pre(A, B))
        return Opts.normalize(R.Apply(A, B));
  return Type::top(); // the implicit default rule
}

std::string TypeCalculator::firedBinaryRule(BinOp Op, const Type &A,
                                            const Type &B) const {
  auto It = BinaryRules.find(static_cast<uint8_t>(Op));
  if (It != BinaryRules.end())
    for (const BinaryRule &R : It->second)
      if (R.Pre(A, B))
        return R.Name;
  return "";
}

Type TypeCalculator::unary(UnaryOpKind Op, const Type &A,
                           const InferOptions &Opts) const {
  auto It = UnaryRules.find(static_cast<uint8_t>(Op));
  if (It != UnaryRules.end())
    for (const UnaryRule &R : It->second)
      if (R.Pre(A))
        return Opts.normalize(R.Apply(A));
  return Type::top();
}

std::vector<Type> TypeCalculator::builtin(const std::string &Name,
                                          std::span<const Type> Args,
                                          size_t NumOuts,
                                          const InferOptions &Opts) const {
  auto It = BuiltinRules.find(Name);
  if (It != BuiltinRules.end()) {
    for (const BuiltinRule &R : It->second) {
      if (R.Optimistic && !Opts.OptimisticRealMath)
        continue;
      if (!R.Pre(Args))
        continue;
      std::vector<Type> Out = R.Apply(Args, NumOuts);
      for (Type &T : Out)
        T = Opts.normalize(T);
      return Out;
    }
  }
  // Default rule: every requested output is top.
  return std::vector<Type>(std::max<size_t>(NumOuts, 1), Type::top());
}

Type TypeCalculator::colon(const Type &Lo, const Type *Step, const Type &Hi,
                           const InferOptions &Opts) const {
  std::vector<Type> Args;
  Args.push_back(Lo);
  if (Step)
    Args.push_back(*Step);
  Args.push_back(Hi);
  std::vector<Type> Out = builtin("__colon", Args, 1, Opts);
  return Out.front();
}

//===----------------------------------------------------------------------===//
// Arithmetic rules
//===----------------------------------------------------------------------===//

TypeCalculator::TypeCalculator() {
  registerArithmeticRules();
  registerComparisonRules();
  registerUnaryRules();
  registerCreatorBuiltins();
  registerQueryBuiltins();
  registerMathBuiltins();
  registerReductionBuiltins();
  registerLinalgBuiltins();
  registerConstantBuiltins();
  registerIoBuiltins();
}

void TypeCalculator::registerArithmeticRules() {
  using RangeFn = Range (*)(const Range &, const Range &);

  // The standard five-rule ladder for element-wise arithmetic, from most to
  // least restrictive (mirroring the paper's '*' example in Section 2.3.1).
  auto Ladder = [this](BinOp Op, const char *N, bool IntPreserving,
                       RangeFn RF) {
    addBinary(
        Op, format("%s:int-scalar", N),
        [](const Type &A, const Type &B) {
          return intScalar(A) && intScalar(B);
        },
        [IntPreserving, RF](const Type &A, const Type &B) {
          return Type::scalar(IntPreserving ? IntrinsicType::Int
                                            : IntrinsicType::Real,
                              RF(A.range(), B.range()));
        });
    addBinary(
        Op, format("%s:real-scalar", N),
        [](const Type &A, const Type &B) {
          return realScalar(A) && realScalar(B);
        },
        [RF](const Type &A, const Type &B) {
          return Type::scalar(IntrinsicType::Real, RF(A.range(), B.range()));
        });
    addBinary(
        Op, format("%s:cplx-scalar", N),
        [](const Type &A, const Type &B) {
          return cplxScalar(A) && cplxScalar(B);
        },
        [](const Type &, const Type &) {
          return Type::scalar(IntrinsicType::Complex);
        });
    addBinary(
        Op, format("%s:real-array", N),
        [](const Type &A, const Type &B) {
          return realArray(A) && realArray(B);
        },
        [IntPreserving, RF](const Type &A, const Type &B) {
          return elemResult(A, B, joinNumeric(A, B, IntPreserving),
                            RF(A.range(), B.range()));
        });
    addBinary(
        Op, format("%s:cplx-array", N),
        [](const Type &A, const Type &B) {
          return cplxArray(A) && cplxArray(B);
        },
        [](const Type &A, const Type &B) {
          return elemResult(A, B, IntrinsicType::Complex, Range::top());
        });
  };

  Ladder(BinOp::Add, "add", true,
         +[](const Range &A, const Range &B) { return A.add(B); });
  Ladder(BinOp::Sub, "sub", true,
         +[](const Range &A, const Range &B) { return A.sub(B); });
  Ladder(BinOp::ElemMul, "emul", true,
         +[](const Range &A, const Range &B) { return A.mul(B); });
  Ladder(BinOp::ElemRDiv, "ediv", false, +divRange);
  Ladder(BinOp::ElemLDiv, "eldiv", false, +ldivRange);

  // '*': the paper's worked example — integer scalar multiply; real scalar
  // multiply; complex scalar multiply; scalar x matrix; dgemv candidate;
  // real matrix multiply; generic complex matrix multiply.
  addBinary(
      BinOp::MatMul, "mul:int-scalar",
      [](const Type &A, const Type &B) { return intScalar(A) && intScalar(B); },
      [](const Type &A, const Type &B) {
        return Type::scalar(IntrinsicType::Int, A.range().mul(B.range()));
      });
  addBinary(
      BinOp::MatMul, "mul:real-scalar",
      [](const Type &A, const Type &B) {
        return realScalar(A) && realScalar(B);
      },
      [](const Type &A, const Type &B) {
        return Type::scalar(IntrinsicType::Real, A.range().mul(B.range()));
      });
  addBinary(
      BinOp::MatMul, "mul:cplx-scalar",
      [](const Type &A, const Type &B) {
        return cplxScalar(A) && cplxScalar(B);
      },
      [](const Type &, const Type &) {
        return Type::scalar(IntrinsicType::Complex);
      });
  addBinary(
      BinOp::MatMul, "mul:scalar-array",
      [](const Type &A, const Type &B) {
        return (A.isScalar() && cplxArray(B)) ||
               (B.isScalar() && cplxArray(A));
      },
      [](const Type &A, const Type &B) {
        const Type &Arr = A.isScalar() ? B : A;
        IntrinsicType IT = joinNumeric(A, B, true);
        return Type(IT, Arr.minShape(), Arr.maxShape(),
                    A.range().mul(B.range()));
      });
  addBinary(
      BinOp::MatMul, "mul:dgemv",
      [](const Type &A, const Type &B) {
        // Real matrix times a real column vector.
        return realArray(A) && realArray(B) && B.maxShape().Cols == 1;
      },
      [](const Type &A, const Type &B) {
        return Type(IntrinsicType::Real,
                    ShapeBound{A.minShape().Rows, B.minShape().Cols},
                    ShapeBound{A.maxShape().Rows, 1}, Range::top());
      });
  addBinary(
      BinOp::MatMul, "mul:real-matmul",
      [](const Type &A, const Type &B) { return realArray(A) && realArray(B); },
      [](const Type &A, const Type &B) {
        return Type(IntrinsicType::Real,
                    ShapeBound{A.minShape().Rows, B.minShape().Cols},
                    ShapeBound{A.maxShape().Rows, B.maxShape().Cols},
                    Range::top());
      });
  addBinary(
      BinOp::MatMul, "mul:cplx-matmul",
      [](const Type &A, const Type &B) { return cplxArray(A) && cplxArray(B); },
      [](const Type &A, const Type &B) {
        return Type(IntrinsicType::Complex,
                    ShapeBound{A.minShape().Rows, B.minShape().Cols},
                    ShapeBound{A.maxShape().Rows, B.maxShape().Cols},
                    Range::top());
      });

  // '/': right division.
  addBinary(
      BinOp::MatRDiv, "div:real-scalar",
      [](const Type &A, const Type &B) {
        return realScalar(A) && realScalar(B);
      },
      [](const Type &A, const Type &B) {
        return Type::scalar(IntrinsicType::Real, A.range().div(B.range()));
      });
  addBinary(
      BinOp::MatRDiv, "div:cplx-scalar",
      [](const Type &A, const Type &B) {
        return cplxScalar(A) && cplxScalar(B);
      },
      [](const Type &, const Type &) {
        return Type::scalar(IntrinsicType::Complex);
      });
  addBinary(
      BinOp::MatRDiv, "div:array-scalar",
      [](const Type &A, const Type &B) {
        return cplxArray(A) && B.isScalar() && cplxArray(B);
      },
      [](const Type &A, const Type &B) {
        IntrinsicType IT = joinNumeric(A, B, false);
        return Type(IT, A.minShape(), A.maxShape(), A.range().div(B.range()));
      });
  addBinary(
      BinOp::MatRDiv, "div:solve",
      [](const Type &A, const Type &B) { return realArray(A) && realArray(B); },
      [](const Type &A, const Type &B) {
        return Type(IntrinsicType::Real,
                    ShapeBound{A.minShape().Rows, B.minShape().Rows},
                    ShapeBound{A.maxShape().Rows, B.maxShape().Rows},
                    Range::top());
      });

  // '\': left division.
  addBinary(
      BinOp::MatLDiv, "ldiv:real-scalar",
      [](const Type &A, const Type &B) {
        return realScalar(A) && realScalar(B);
      },
      [](const Type &A, const Type &B) {
        return Type::scalar(IntrinsicType::Real, B.range().div(A.range()));
      });
  addBinary(
      BinOp::MatLDiv, "ldiv:scalar-array",
      [](const Type &A, const Type &B) {
        return A.isScalar() && cplxScalar(A) && cplxArray(B);
      },
      [](const Type &A, const Type &B) {
        IntrinsicType IT = joinNumeric(A, B, false);
        return Type(IT, B.minShape(), B.maxShape(), B.range().div(A.range()));
      });
  addBinary(
      BinOp::MatLDiv, "ldiv:solve",
      [](const Type &A, const Type &B) { return realArray(A) && realArray(B); },
      [](const Type &A, const Type &B) {
        return Type(IntrinsicType::Real,
                    ShapeBound{A.minShape().Cols, B.minShape().Cols},
                    ShapeBound{A.maxShape().Cols, B.maxShape().Cols},
                    Range::top());
      });

  // '^' and '.^': power, with the complex-escalation subtlety.
  auto PowLadder = [this](BinOp Op, const char *N) {
    addBinary(
        Op, format("%s:int", N),
        [](const Type &A, const Type &B) {
          return intScalar(A) && intScalar(B) && B.range().Lo >= 0;
        },
        [](const Type &A, const Type &B) {
          Range R = B.range().isConstant() ? A.range().powConst(B.range().Lo)
                                           : Range::top();
          return Type::scalar(IntrinsicType::Int, R);
        });
    addBinary(
        Op, format("%s:real-safe", N),
        [](const Type &A, const Type &B) {
          // Stays real: non-negative base, or a provably integral exponent.
          bool IntExp = intScalar(B) ||
                        (B.range().isConstant() &&
                         B.range().Lo == std::floor(B.range().Lo));
          return realScalar(A) && realScalar(B) &&
                 (A.range().Lo >= 0 || IntExp);
        },
        [](const Type &A, const Type &B) {
          Range R = B.range().isConstant() ? A.range().powConst(B.range().Lo)
                                           : Range::top();
          return Type::scalar(IntrinsicType::Real, R);
        });
    addBinary(
        Op, format("%s:scalar-escalates", N),
        [](const Type &A, const Type &B) {
          return cplxScalar(A) && cplxScalar(B);
        },
        [](const Type &, const Type &) {
          // A negative base with fractional exponent goes complex.
          return Type::scalar(IntrinsicType::Complex);
        });
  };
  PowLadder(BinOp::MatPow, "pow");
  PowLadder(BinOp::ElemPow, "epow");
  addBinary(
      BinOp::ElemPow, "epow:array",
      [](const Type &A, const Type &B) { return cplxArray(A) && cplxArray(B); },
      [](const Type &A, const Type &B) {
        // Stays real: non-negative base, or a provably integral exponent
        // (mirrors epow:real-safe; scalarPow never escalates when the
        // exponent is integral, so x.^2 on a sign-unknown array is Real).
        bool IntExp = intrinsicLE(B.intrinsic(), IntrinsicType::Int) ||
                      (B.range().isConstant() &&
                       B.range().Lo == std::floor(B.range().Lo));
        bool Safe = realArray(A) && realArray(B) &&
                    (A.range().Lo >= 0 || IntExp);
        return elemResult(
            A, B, Safe ? IntrinsicType::Real : IntrinsicType::Complex,
            Range::top());
      });
  addBinary(
      BinOp::MatPow, "pow:matrix",
      [](const Type &A, const Type &B) {
        return cplxArray(A) && intScalar(B);
      },
      [](const Type &A, const Type &) {
        return Type(A.intrinsic() == IntrinsicType::Complex
                        ? IntrinsicType::Complex
                        : IntrinsicType::Real,
                    A.minShape(), A.maxShape(), Range::top());
      });

  // The colon operator (pseudo-builtin "__colon").
  auto ColonShape = [](std::span<const Type> Args) {
    const Type &Lo = Args.front();
    const Type &Hi = Args.back();
    const Type *Step = Args.size() == 3 ? &Args[1] : nullptr;
    double StepLo = Step ? Step->range().Lo : 1.0;
    double StepHi = Step ? Step->range().Hi : 1.0;

    uint64_t MaxN = ShapeBound::kUnknownDim;
    uint64_t MinN = 0;
    if (StepLo > 0 && std::isfinite(Hi.range().Hi) &&
        std::isfinite(Lo.range().Lo)) {
      double Span = (Hi.range().Hi - Lo.range().Lo) / StepLo;
      MaxN = Span < 0 ? 0 : static_cast<uint64_t>(std::floor(Span)) + 1;
    }
    if (StepHi > 0 && std::isfinite(Hi.range().Lo) &&
        std::isfinite(Lo.range().Hi)) {
      double Span = (Hi.range().Lo - Lo.range().Hi) / StepHi;
      MinN = Span < 0 ? 0 : static_cast<uint64_t>(std::floor(Span)) + 1;
    }
    return std::pair<ShapeBound, ShapeBound>{{MinN == 0 ? 0 : 1, MinN},
                                             {MaxN == 0 ? 0 : 1, MaxN}};
  };
  addBuiltin(
      "__colon", "colon:int",
      [](std::span<const Type> Args) {
        for (const Type &T : Args)
          if (!intScalar(T))
            return false;
        return true;
      },
      [ColonShape](std::span<const Type> Args, size_t) {
        auto [Min, Max] = ColonShape(Args);
        // Every element lies between the endpoints regardless of the step
        // direction: the hull of the two endpoint ranges is sound.
        Range Elems = Args.front().range().join(Args.back().range());
        return std::vector<Type>{
            Type(IntrinsicType::Int, Min, Max, Elems)};
      });
  addBuiltin(
      "__colon", "colon:real",
      [](std::span<const Type> Args) {
        for (const Type &T : Args)
          if (!realScalar(T))
            return false;
        return true;
      },
      [ColonShape](std::span<const Type> Args, size_t) {
        auto [Min, Max] = ColonShape(Args);
        Range Elems = Args.front().range().join(Args.back().range());
        return std::vector<Type>{
            Type(IntrinsicType::Real, Min, Max, Elems)};
      });
  addBuiltin(
      "__colon", "colon:any",
      [](std::span<const Type>) { return true; },
      [](std::span<const Type>, size_t) {
        // Colon ignores imaginary parts; result is a real row vector.
        return std::vector<Type>{Type(IntrinsicType::Real,
                                      ShapeBound::bottom(),
                                      ShapeBound{1, ShapeBound::kUnknownDim},
                                      Range::top())};
      });
}

//===----------------------------------------------------------------------===//
// Comparison and logic rules
//===----------------------------------------------------------------------===//

void TypeCalculator::registerComparisonRules() {
  auto BoolLadder = [this](BinOp Op, const char *N) {
    addBinary(
        Op, format("%s:scalar", N),
        [](const Type &A, const Type &B) {
          return cplxScalar(A) && cplxScalar(B);
        },
        [](const Type &, const Type &) {
          return Type::scalar(IntrinsicType::Bool, Range::interval(0, 1));
        });
    addBinary(
        Op, format("%s:array", N),
        [](const Type &A, const Type &B) {
          return cplxArray(A) && cplxArray(B);
        },
        [](const Type &A, const Type &B) {
          return elemResult(A, B, IntrinsicType::Bool, Range::interval(0, 1));
        });
  };
  BoolLadder(BinOp::Lt, "lt");
  BoolLadder(BinOp::Le, "le");
  BoolLadder(BinOp::Gt, "gt");
  BoolLadder(BinOp::Ge, "ge");
  BoolLadder(BinOp::Eq, "eq");
  BoolLadder(BinOp::Ne, "ne");
  BoolLadder(BinOp::And, "and");
  BoolLadder(BinOp::Or, "or");
}

//===----------------------------------------------------------------------===//
// Unary rules
//===----------------------------------------------------------------------===//

void TypeCalculator::registerUnaryRules() {
  addUnary(
      UnaryOpKind::Neg, "neg:int-scalar", intScalar,
      [](const Type &A) {
        return Type::scalar(IntrinsicType::Int, A.range().neg());
      });
  addUnary(
      UnaryOpKind::Neg, "neg:real-scalar", realScalar,
      [](const Type &A) {
        return Type::scalar(IntrinsicType::Real, A.range().neg());
      });
  addUnary(
      UnaryOpKind::Neg, "neg:array", cplxArray,
      [](const Type &A) {
        IntrinsicType IT = A.intrinsic() == IntrinsicType::Bool
                               ? IntrinsicType::Int
                               : A.intrinsic();
        return Type(IT, A.minShape(), A.maxShape(), A.range().neg());
      });

  addUnary(
      UnaryOpKind::Plus, "uplus:any",
      [](const Type &) { return true; }, [](const Type &A) { return A; });

  addUnary(
      UnaryOpKind::Not, "not:real", realArray,
      [](const Type &A) {
        return Type(IntrinsicType::Bool, A.minShape(), A.maxShape(),
                    Range::interval(0, 1));
      });

  auto Swap = [](const Type &A) {
    return Type(A.intrinsic(),
                ShapeBound{A.minShape().Cols, A.minShape().Rows},
                ShapeBound{A.maxShape().Cols, A.maxShape().Rows}, A.range());
  };
  addUnary(UnaryOpKind::CTranspose, "ctrans:numeric", cplxArray, Swap);
  addUnary(UnaryOpKind::Transpose, "trans:numeric", cplxArray, Swap);
}

//===----------------------------------------------------------------------===//
// Builtin rules: creators
//===----------------------------------------------------------------------===//

namespace {

/// Shape bounds implied by zeros/ones/rand/eye arguments.
void creatorShapes(std::span<const Type> Args, ShapeBound &Min,
                   ShapeBound &Max) {
  auto DimBounds = [](const Type &T, uint64_t &Lo, uint64_t &Hi) {
    Lo = 0;
    Hi = ShapeBound::kUnknownDim;
    Range R = T.range();
    if (!R.isBottom() && std::isfinite(R.Lo) && R.Lo > 0)
      Lo = static_cast<uint64_t>(std::floor(R.Lo));
    if (!R.isBottom() && std::isfinite(R.Hi) && R.Hi >= 0)
      Hi = static_cast<uint64_t>(std::floor(R.Hi));
  };
  if (Args.empty()) {
    Min = Max = ShapeBound::scalar();
    return;
  }
  uint64_t RLo, RHi, CLo, CHi;
  DimBounds(Args[0], RLo, RHi);
  if (Args.size() == 1) {
    CLo = RLo;
    CHi = RHi;
  } else {
    DimBounds(Args[1], CLo, CHi);
  }
  Min = ShapeBound{RLo, CLo};
  Max = ShapeBound{RHi, CHi};
}

bool allIntScalars(std::span<const Type> Args) {
  for (const Type &T : Args)
    if (!scalarOf(T, IntrinsicType::Real)) // MATLAB warns but accepts reals
      return false;
  return true;
}

std::vector<Type> one(Type T) { return std::vector<Type>{std::move(T)}; }

} // namespace

void TypeCalculator::registerCreatorBuiltins() {
  auto Creator = [this](const char *Name, IntrinsicType IT, Range ElemRange) {
    addBuiltin(
        Name, format("%s:shaped", Name), allIntScalars,
        [IT, ElemRange](std::span<const Type> Args, size_t) {
          ShapeBound Min, Max;
          creatorShapes(Args, Min, Max);
          return one(Type(IT, Min, Max, ElemRange));
        });
    addBuiltin(
        Name, format("%s:any", Name),
        [](std::span<const Type>) { return true; },
        [IT, ElemRange](std::span<const Type>, size_t) {
          return one(Type(IT, ShapeBound::bottom(), ShapeBound::top(),
                          ElemRange));
        });
  };
  Creator("zeros", IntrinsicType::Real, Range::constant(0));
  Creator("ones", IntrinsicType::Int, Range::constant(1));
  Creator("eye", IntrinsicType::Int, Range::interval(0, 1));
  Creator("rand", IntrinsicType::Real, Range::interval(0, 1));

  addBuiltin(
      "linspace", "linspace:n",
      [](std::span<const Type> Args) {
        return Args.size() == 3 && Args[2].constantValue().has_value();
      },
      [](std::span<const Type> Args, size_t) {
        auto N = static_cast<uint64_t>(*Args[2].constantValue());
        return one(Type(IntrinsicType::Real, ShapeBound{1, N},
                        ShapeBound{1, N},
                        Args[0].range().join(Args[1].range())));
      });
  addBuiltin(
      "linspace", "linspace:any",
      [](std::span<const Type>) { return true; },
      [](std::span<const Type>, size_t) {
        return one(Type(IntrinsicType::Real, ShapeBound::bottom(),
                        ShapeBound{1, ShapeBound::kUnknownDim}, Range::top()));
      });
}

//===----------------------------------------------------------------------===//
// Builtin rules: shape queries
//===----------------------------------------------------------------------===//

void TypeCalculator::registerQueryBuiltins() {
  addBuiltin(
      "size", "size:dim",
      [](std::span<const Type> Args) {
        return Args.size() == 2 && Args[1].constantValue().has_value();
      },
      [](std::span<const Type> Args, size_t) {
        double Dim = *Args[1].constantValue();
        const Type &A = Args[0];
        uint64_t Lo = Dim == 1 ? A.minShape().Rows : A.minShape().Cols;
        uint64_t Hi = Dim == 1 ? A.maxShape().Rows : A.maxShape().Cols;
        Range R{static_cast<double>(Lo),
                Hi == ShapeBound::kUnknownDim
                    ? std::numeric_limits<double>::infinity()
                    : static_cast<double>(Hi)};
        return one(Type::scalar(IntrinsicType::Int, R));
      });
  addBuiltin(
      "size", "size:vector",
      [](std::span<const Type> Args) { return Args.size() == 1; },
      [](std::span<const Type> Args, size_t NumOuts) {
        const Type &A = Args[0];
        auto DimRange = [](uint64_t Lo, uint64_t Hi) {
          return Range{static_cast<double>(Lo),
                       Hi == ShapeBound::kUnknownDim
                           ? std::numeric_limits<double>::infinity()
                           : static_cast<double>(Hi)};
        };
        Range Rows = DimRange(A.minShape().Rows, A.maxShape().Rows);
        Range Cols = DimRange(A.minShape().Cols, A.maxShape().Cols);
        if (NumOuts >= 2)
          return std::vector<Type>{Type::scalar(IntrinsicType::Int, Rows),
                                   Type::scalar(IntrinsicType::Int, Cols)};
        return one(Type(IntrinsicType::Int, ShapeBound{1, 2}, ShapeBound{1, 2},
                        Rows.join(Cols)));
      });

  addBuiltin(
      "length", "length:bounds",
      [](std::span<const Type> Args) { return Args.size() == 1; },
      [](std::span<const Type> Args, size_t) {
        const Type &A = Args[0];
        double Lo = static_cast<double>(
            std::max(A.minShape().Rows, A.minShape().Cols));
        if (A.minShape().numel() == 0)
          Lo = 0;
        uint64_t HiR = A.maxShape().Rows, HiC = A.maxShape().Cols;
        double Hi = (HiR == ShapeBound::kUnknownDim ||
                     HiC == ShapeBound::kUnknownDim)
                        ? std::numeric_limits<double>::infinity()
                        : static_cast<double>(std::max(HiR, HiC));
        return one(Type::scalar(IntrinsicType::Int, Range{Lo, Hi}));
      });

  addBuiltin(
      "numel", "numel:bounds",
      [](std::span<const Type> Args) { return Args.size() == 1; },
      [](std::span<const Type> Args, size_t) {
        const Type &A = Args[0];
        double Lo = static_cast<double>(A.minShape().numel());
        double Hi = A.maxShape().numel() == ShapeBound::kUnknownDim
                        ? std::numeric_limits<double>::infinity()
                        : static_cast<double>(A.maxShape().numel());
        return one(Type::scalar(IntrinsicType::Int, Range{Lo, Hi}));
      });

  auto BoolQuery = [this](const char *Name) {
    addBuiltin(
        Name, format("%s:bool", Name),
        [](std::span<const Type>) { return true; },
        [](std::span<const Type>, size_t) {
          return one(Type::scalar(IntrinsicType::Bool, Range::interval(0, 1)));
        });
  };
  BoolQuery("isempty");
  BoolQuery("isreal");
  BoolQuery("isscalar");
}

//===----------------------------------------------------------------------===//
// Builtin rules: element-wise math
//===----------------------------------------------------------------------===//

void TypeCalculator::registerMathBuiltins() {
  using RangeMap = Range (*)(const Range &);
  // Real -> real element-wise map preserving shape.
  auto RealMap = [this](const char *Name, IntrinsicType OutIT, RangeMap RM) {
    addBuiltin(
        Name, format("%s:real", Name),
        [](std::span<const Type> Args) {
          return Args.size() == 1 && realArray(Args[0]);
        },
        [OutIT, RM](std::span<const Type> Args, size_t) {
          const Type &A = Args[0];
          return one(Type(OutIT, A.minShape(), A.maxShape(), RM(A.range())));
        });
  };
  // Complex fallthrough: same shape, complex intrinsic.
  auto CplxMap = [this](const char *Name) {
    addBuiltin(
        Name, format("%s:cplx", Name),
        [](std::span<const Type> Args) {
          return Args.size() == 1 && cplxArray(Args[0]);
        },
        [](std::span<const Type> Args, size_t) {
          const Type &A = Args[0];
          return one(Type(IntrinsicType::Complex, A.minShape(), A.maxShape(),
                          Range::top()));
        });
  };

  // abs: real -> |range|, complex -> real magnitude.
  RealMap("abs", IntrinsicType::Real,
          +[](const Range &R) { return R.absRange(); });
  addBuiltin(
      "abs", "abs:cplx",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && cplxArray(Args[0]);
      },
      [](std::span<const Type> Args, size_t) {
        const Type &A = Args[0];
        return one(Type(IntrinsicType::Real, A.minShape(), A.maxShape(),
                        Range::nonNegative()));
      });

  // sqrt/log family: stays real only on a proven domain; otherwise the
  // result may escalate to complex (the guarded-intrinsic story).
  auto DomainMap = [this, CplxMap](const char *Name, double DomainLo,
                                   RangeMap RM) {
    addBuiltin(
        Name, format("%s:safe", Name),
        [DomainLo](std::span<const Type> Args) {
          return Args.size() == 1 && realArray(Args[0]) &&
                 !Args[0].range().isBottom() && Args[0].range().Lo >= DomainLo;
        },
        [RM](std::span<const Type> Args, size_t) {
          const Type &A = Args[0];
          return one(Type(IntrinsicType::Real, A.minShape(), A.maxShape(),
                          RM(A.range())));
        });
    // Optimistic: the domain is unknown (but not provably violated); the
    // result stays Real under a runtime deoptimization guard.
    addBuiltin(
        Name, format("%s:optimistic", Name),
        [DomainLo](std::span<const Type> Args) {
          if (Args.size() != 1 || !realArray(Args[0]))
            return false;
          Range R = Args[0].range();
          return R.isBottom() || !(R.Hi < DomainLo);
        },
        [](std::span<const Type> Args, size_t) {
          const Type &A = Args[0];
          return one(Type(IntrinsicType::Real, A.minShape(), A.maxShape(),
                          Range::top()));
        },
        /*Optimistic=*/true);
    addBuiltin(
        Name, format("%s:escalates", Name),
        [](std::span<const Type> Args) {
          return Args.size() == 1 && cplxArray(Args[0]);
        },
        [](std::span<const Type> Args, size_t) {
          const Type &A = Args[0];
          return one(Type(IntrinsicType::Complex, A.minShape(), A.maxShape(),
                          Range::top()));
        });
    (void)CplxMap;
  };
  DomainMap("sqrt", 0.0, +[](const Range &R) {
    return Range{std::sqrt(R.Lo), std::sqrt(R.Hi)};
  });
  DomainMap("log", 0.0, +[](const Range &R) {
    return Range{std::log(R.Lo), std::log(R.Hi)};
  });
  DomainMap("log2", 0.0, +[](const Range &R) {
    return Range{std::log2(R.Lo), std::log2(R.Hi)};
  });
  DomainMap("log10", 0.0, +[](const Range &R) {
    return Range{std::log10(R.Lo), std::log10(R.Hi)};
  });

  // exp: monotone, always real on reals.
  RealMap("exp", IntrinsicType::Real, +[](const Range &R) {
    return Range{std::exp(R.Lo), std::exp(R.Hi)};
  });
  CplxMap("exp");

  // Bounded trig.
  for (const char *Name : {"sin", "cos"}) {
    RealMap(Name, IntrinsicType::Real,
            +[](const Range &) { return Range::interval(-1, 1); });
    CplxMap(Name);
  }
  RealMap("tan", IntrinsicType::Real, +[](const Range &) { return Range::top(); });
  CplxMap("tan");
  RealMap("atan", IntrinsicType::Real, +[](const Range &) {
    return Range::interval(-1.5707963267948966, 1.5707963267948966);
  });
  for (const char *Name : {"sinh", "cosh", "tanh"}) {
    RealMap(Name, IntrinsicType::Real,
            +[](const Range &) { return Range::top(); });
    CplxMap(Name);
  }
  // asin/acos: real only on [-1, 1].
  for (const char *Name : {"asin", "acos"}) {
    addBuiltin(
        Name, format("%s:safe", Name),
        [](std::span<const Type> Args) {
          return Args.size() == 1 && realArray(Args[0]) &&
                 !Args[0].range().isBottom() && Args[0].range().Lo >= -1 &&
                 Args[0].range().Hi <= 1;
        },
        [](std::span<const Type> Args, size_t) {
          const Type &A = Args[0];
          return one(Type(IntrinsicType::Real, A.minShape(), A.maxShape(),
                          Range::interval(-3.1415926535897932,
                                          3.1415926535897932)));
        });
    CplxMap(Name);
  }

  // Rounding: integral results.
  RealMap("floor", IntrinsicType::Int,
          +[](const Range &R) { return R.floorRange(); });
  RealMap("ceil", IntrinsicType::Int,
          +[](const Range &R) { return R.ceilRange(); });
  RealMap("round", IntrinsicType::Int, +[](const Range &R) {
    return Range{std::round(R.Lo), std::round(R.Hi)};
  });
  RealMap("fix", IntrinsicType::Int, +[](const Range &R) {
    return Range{std::trunc(R.Lo), std::trunc(R.Hi)};
  });
  RealMap("sign", IntrinsicType::Int,
          +[](const Range &) { return Range::interval(-1, 1); });

  // real/imag/conj/angle.
  RealMap("real", IntrinsicType::Real, +[](const Range &R) { return R; });
  addBuiltin(
      "real", "real:cplx",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && cplxArray(Args[0]);
      },
      [](std::span<const Type> Args, size_t) {
        const Type &A = Args[0];
        return one(Type(IntrinsicType::Real, A.minShape(), A.maxShape(),
                        Range::top()));
      });
  addBuiltin(
      "imag", "imag:any",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && cplxArray(Args[0]);
      },
      [](std::span<const Type> Args, size_t) {
        const Type &A = Args[0];
        return one(Type(IntrinsicType::Real, A.minShape(), A.maxShape(),
                        Range::top()));
      });
  addBuiltin(
      "conj", "conj:any",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && cplxArray(Args[0]);
      },
      [](std::span<const Type> Args, size_t) { return one(Args[0]); });
  addBuiltin(
      "angle", "angle:any",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && cplxArray(Args[0]);
      },
      [](std::span<const Type> Args, size_t) {
        const Type &A = Args[0];
        return one(Type(IntrinsicType::Real, A.minShape(), A.maxShape(),
                        Range::interval(-3.1415926535897932,
                                        3.1415926535897932)));
      });

  // mod/rem/atan2: two-argument real maps.
  addBuiltin(
      "mod", "mod:pos",
      [](std::span<const Type> Args) {
        return Args.size() == 2 && realArray(Args[0]) && realArray(Args[1]) &&
               !Args[1].range().isBottom() && Args[1].range().Lo > 0;
      },
      [](std::span<const Type> Args, size_t) {
        IntrinsicType IT = joinNumeric(Args[0], Args[1], true);
        return one(elemResult(Args[0], Args[1], IT,
                              Range{0, Args[1].range().Hi}));
      });
  addBuiltin(
      "mod", "mod:real",
      [](std::span<const Type> Args) {
        return Args.size() == 2 && realArray(Args[0]) && realArray(Args[1]);
      },
      [](std::span<const Type> Args, size_t) {
        return one(elemResult(Args[0], Args[1],
                              joinNumeric(Args[0], Args[1], true),
                              Range::top()));
      });
  addBuiltin(
      "rem", "rem:real",
      [](std::span<const Type> Args) {
        return Args.size() == 2 && realArray(Args[0]) && realArray(Args[1]);
      },
      [](std::span<const Type> Args, size_t) {
        return one(elemResult(Args[0], Args[1],
                              joinNumeric(Args[0], Args[1], true),
                              Range::top()));
      });
  addBuiltin(
      "atan2", "atan2:real",
      [](std::span<const Type> Args) {
        return Args.size() == 2 && realArray(Args[0]) && realArray(Args[1]);
      },
      [](std::span<const Type> Args, size_t) {
        return one(elemResult(Args[0], Args[1], IntrinsicType::Real,
                              Range::interval(-3.1415926535897932,
                                              3.1415926535897932)));
      });
}

//===----------------------------------------------------------------------===//
// Builtin rules: reductions and search
//===----------------------------------------------------------------------===//

namespace {

/// MATLAB reduction shape: vectors reduce to scalars, matrices to rows.
Type reductionType(const Type &A, IntrinsicType IT, Range R) {
  if (A.maxShape().Rows == 1 || A.maxShape().Cols == 1)
    return Type::scalar(IT, R);
  if (A.minShape().Rows > 1) {
    // Definitely a matrix: a 1 x cols row vector.
    return Type(IT, ShapeBound{1, A.minShape().Cols},
                ShapeBound{1, A.maxShape().Cols}, R);
  }
  return Type(IT, ShapeBound::bottom(),
              ShapeBound{1, std::max(A.maxShape().Cols, uint64_t(1))}, R);
}

} // namespace

void TypeCalculator::registerReductionBuiltins() {
  auto Reduce = [this](const char *Name, bool IntPreserving,
                       Range (*RM)(const Range &, uint64_t)) {
    addBuiltin(
        Name, format("%s:real", Name),
        [](std::span<const Type> Args) {
          return Args.size() == 1 && realArray(Args[0]);
        },
        [IntPreserving, RM](std::span<const Type> Args, size_t) {
          const Type &A = Args[0];
          IntrinsicType IT =
              IntPreserving && intrinsicLE(A.intrinsic(), IntrinsicType::Int)
                  ? IntrinsicType::Int
                  : IntrinsicType::Real;
          uint64_t MaxN = A.maxShape().numel();
          return one(reductionType(A, IT, RM(A.range(), MaxN)));
        });
  };
  Reduce("sum", true, +[](const Range &R, uint64_t N) {
    if (R.isBottom() || N == ShapeBound::kUnknownDim)
      return Range::top();
    return Range{std::min(0.0, R.Lo * N), std::max(0.0, R.Hi * N)};
  });
  Reduce("prod", true, +[](const Range &, uint64_t) { return Range::top(); });
  Reduce("mean", false, +[](const Range &R, uint64_t) { return R; });

  // max/min: reduction and element-wise forms, with the optional index out.
  for (const char *Name : {"max", "min"}) {
    addBuiltin(
        Name, format("%s:reduce", Name),
        [](std::span<const Type> Args) {
          return Args.size() == 1 && realArray(Args[0]);
        },
        [](std::span<const Type> Args, size_t NumOuts) {
          const Type &A = Args[0];
          std::vector<Type> Out;
          Out.push_back(reductionType(A, joinNumeric(A, A, true), A.range()));
          if (NumOuts >= 2) {
            double HiN = A.maxShape().numel() == ShapeBound::kUnknownDim
                             ? std::numeric_limits<double>::infinity()
                             : static_cast<double>(A.maxShape().numel());
            Out.push_back(reductionType(A, IntrinsicType::Int,
                                        Range{1, HiN}));
          }
          return Out;
        });
    addBuiltin(
        Name, format("%s:elemwise", Name),
        [](std::span<const Type> Args) {
          return Args.size() == 2 && realArray(Args[0]) && realArray(Args[1]);
        },
        [](std::span<const Type> Args, size_t) {
          return one(elemResult(Args[0], Args[1],
                                joinNumeric(Args[0], Args[1], true),
                                Args[0].range().join(Args[1].range())));
        });
  }

  addBuiltin(
      "norm", "norm:nonneg",
      [](std::span<const Type> Args) { return !Args.empty(); },
      [](std::span<const Type>, size_t) {
        return one(Type::scalar(IntrinsicType::Real, Range::nonNegative()));
      });
  addBuiltin(
      "dot", "dot:real",
      [](std::span<const Type> Args) {
        return Args.size() == 2 && realArray(Args[0]) && realArray(Args[1]);
      },
      [](std::span<const Type>, size_t) {
        return one(Type::scalar(IntrinsicType::Real));
      });
  addBuiltin(
      "find", "find:indices",
      [](std::span<const Type> Args) { return Args.size() == 1; },
      [](std::span<const Type> Args, size_t) {
        const Type &A = Args[0];
        double HiN = A.maxShape().numel() == ShapeBound::kUnknownDim
                         ? std::numeric_limits<double>::infinity()
                         : static_cast<double>(A.maxShape().numel());
        return one(Type(IntrinsicType::Int, ShapeBound::bottom(),
                        A.maxShape(), Range{1, HiN}));
      });
  for (const char *Name : {"any", "all"}) {
    addBuiltin(
        Name, format("%s:bool", Name),
        [](std::span<const Type> Args) { return Args.size() == 1; },
        [](std::span<const Type> Args, size_t) {
          return one(reductionType(Args[0], IntrinsicType::Bool,
                                   Range::interval(0, 1)));
        });
  }
  addBuiltin(
      "sort", "sort:vector",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && realArray(Args[0]);
      },
      [](std::span<const Type> Args, size_t NumOuts) {
        const Type &A = Args[0];
        std::vector<Type> Out;
        Out.push_back(A);
        if (NumOuts >= 2) {
          double HiN = A.maxShape().numel() == ShapeBound::kUnknownDim
                           ? std::numeric_limits<double>::infinity()
                           : static_cast<double>(A.maxShape().numel());
          Out.push_back(Type(IntrinsicType::Int, A.minShape(), A.maxShape(),
                             Range{1, HiN}));
        }
        return Out;
      });
}

//===----------------------------------------------------------------------===//
// Builtin rules: linear algebra
//===----------------------------------------------------------------------===//

void TypeCalculator::registerLinalgBuiltins() {
  addBuiltin(
      "eig", "eig:real",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && realArray(Args[0]);
      },
      [](std::span<const Type> Args, size_t NumOuts) {
        const Type &A = Args[0];
        std::vector<Type> Out;
        if (NumOuts >= 2) {
          Out.push_back(Type(IntrinsicType::Real, A.minShape(), A.maxShape(),
                             Range::top())); // eigenvector matrix
          Out.push_back(Type(IntrinsicType::Real, A.minShape(), A.maxShape(),
                             Range::top())); // diagonal eigenvalue matrix
          return Out;
        }
        Out.push_back(Type(IntrinsicType::Real,
                           ShapeBound{A.minShape().Rows, 1},
                           ShapeBound{A.maxShape().Rows, 1}, Range::top()));
        return Out;
      });
  addBuiltin(
      "chol", "chol:real",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && realArray(Args[0]);
      },
      [](std::span<const Type> Args, size_t) { return one(Args[0]); });
  addBuiltin(
      "inv", "inv:real",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && realArray(Args[0]);
      },
      [](std::span<const Type> Args, size_t) {
        const Type &A = Args[0];
        return one(Type(IntrinsicType::Real, A.minShape(), A.maxShape(),
                        Range::top()));
      });
  addBuiltin(
      "det", "det:real",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && realArray(Args[0]);
      },
      [](std::span<const Type>, size_t) {
        return one(Type::scalar(IntrinsicType::Real));
      });
  addBuiltin(
      "trace", "trace:real",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && realArray(Args[0]);
      },
      [](std::span<const Type>, size_t) {
        return one(Type::scalar(IntrinsicType::Real));
      });
  addBuiltin(
      "diag", "diag:vector",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && cplxArray(Args[0]) &&
               (Args[0].maxShape().Rows == 1 || Args[0].maxShape().Cols == 1);
      },
      [](std::span<const Type> Args, size_t) {
        const Type &A = Args[0];
        uint64_t NLo = std::max(A.minShape().Rows, A.minShape().Cols);
        uint64_t NHi = A.maxShape().numel() == ShapeBound::kUnknownDim
                           ? ShapeBound::kUnknownDim
                           : std::max(A.maxShape().Rows, A.maxShape().Cols);
        return one(Type(A.intrinsic(), ShapeBound{NLo, NLo},
                        ShapeBound{NHi, NHi}, A.range()));
      });
  addBuiltin(
      "diag", "diag:matrix",
      [](std::span<const Type> Args) {
        return Args.size() == 1 && cplxArray(Args[0]);
      },
      [](std::span<const Type> Args, size_t) {
        const Type &A = Args[0];
        return one(Type(A.intrinsic(), ShapeBound::bottom(),
                        ShapeBound{A.maxShape().Rows, 1}, A.range()));
      });
}

//===----------------------------------------------------------------------===//
// Builtin rules: constants, I/O
//===----------------------------------------------------------------------===//

void TypeCalculator::registerConstantBuiltins() {
  auto Constant = [this](const char *Name, Type T) {
    addBuiltin(
        Name, format("%s:const", Name),
        [](std::span<const Type> Args) { return Args.empty(); },
        [T](std::span<const Type>, size_t) { return one(T); });
  };
  Constant("pi", Type::scalar(IntrinsicType::Real,
                              Range::constant(3.14159265358979323846)));
  Constant("true", Type::scalar(IntrinsicType::Bool, Range::constant(1)));
  Constant("false", Type::scalar(IntrinsicType::Bool, Range::constant(0)));
  Constant("eps", Type::scalar(IntrinsicType::Real,
                               Range::constant(
                                   std::numeric_limits<double>::epsilon())));
  Constant("Inf", Type::scalar(IntrinsicType::Real,
                               Range::interval(
                                   std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::infinity())));
  Constant("inf", Type::scalar(IntrinsicType::Real,
                               Range::interval(
                                   std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::infinity())));
  Constant("NaN", Type::scalar(IntrinsicType::Real));
  Constant("nan", Type::scalar(IntrinsicType::Real));
  Constant("i", Type::scalar(IntrinsicType::Complex));
  Constant("j", Type::scalar(IntrinsicType::Complex));
}

void TypeCalculator::registerIoBuiltins() {
  auto NoOutput = [this](const char *Name) {
    addBuiltin(
        Name, format("%s:void", Name),
        [](std::span<const Type>) { return true; },
        [](std::span<const Type>, size_t) { return std::vector<Type>(); });
  };
  NoOutput("disp");
  NoOutput("fprintf");
  NoOutput("error");
  NoOutput("warning");
  auto StringOut = [this](const char *Name) {
    addBuiltin(
        Name, format("%s:string", Name),
        [](std::span<const Type>) { return true; },
        [](std::span<const Type>, size_t) {
          return one(Type(IntrinsicType::String, ShapeBound::bottom(),
                          ShapeBound{1, ShapeBound::kUnknownDim},
                          Range::top()));
        });
  };
  StringOut("sprintf");
  StringOut("num2str");
}

//===----------------------------------------------------------------------===//
// Backward mode
//===----------------------------------------------------------------------===//

bool TypeCalculator::backwardBinary(BinOp Op, const Type &ResultHint,
                                    Type &AHint, Type &BHint) const {
  // Scalar results of element-wise/scalar arithmetic suggest scalar
  // operands; this is how colon/index hints reach expressions like n-1.
  switch (Op) {
  case BinOp::Add:
  case BinOp::Sub:
  case BinOp::ElemMul:
  case BinOp::ElemRDiv:
  case BinOp::MatMul:
  case BinOp::MatRDiv:
  case BinOp::MatPow:
  case BinOp::ElemPow:
    if (!ResultHint.isScalar())
      return false;
    AHint = Type::scalar(ResultHint.intrinsic());
    BHint = Type::scalar(ResultHint.intrinsic());
    return true;
  default:
    return false;
  }
}

bool TypeCalculator::backwardUnary(UnaryOpKind Op, const Type &ResultHint,
                                   Type &OperandHint) const {
  if (Op == UnaryOpKind::Neg || Op == UnaryOpKind::Plus) {
    OperandHint = ResultHint;
    return true;
  }
  return false;
}
