//===- infer/Infer.cpp - JIT type inference ------------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "infer/Infer.h"

#include "analysis/Dataflow.h"
#include "runtime/Builtins.h"

#include <algorithm>
#include <cmath>

using namespace majic;

namespace {

/// The empty-matrix type ([]), the auto-vivification seed of indexed
/// assignment to an undefined variable.
Type emptyMatrixType() {
  return Type(IntrinsicType::Real, ShapeBound::exact(0, 0),
              ShapeBound::exact(0, 0), Range::bottom());
}

/// True when \p Idx is provably a positive integral subscript.
bool integralSubscript(const Type &Idx) {
  if (Idx.range().isBottom() || Idx.range().Lo < 1)
    return false;
  if (intrinsicLE(Idx.intrinsic(), IntrinsicType::Int))
    return true;
  // A real constant that happens to be integral also qualifies.
  return Idx.range().isConstant() &&
         Idx.range().Lo == std::floor(Idx.range().Lo);
}

/// The type inference domain: one Type per variable slot.
class TypeDomain {
public:
  using State = std::vector<Type>;

  /// \p Self, when non-null, is the type safe self-calls return. \p Strict
  /// makes bottom (no value: the expression never completes) propagate
  /// through every operation, which the self-call fixpoint needs: a path
  /// through a self-call of unknown result then adds nothing.
  TypeDomain(const FunctionInfo &FI, const TypeSignature &Sig,
             const InferOptions &Opts, TypeAnnotations &Ann,
             const Type *Self, bool Strict)
      : FI(FI), Sig(Sig), Opts(Opts), Ann(Ann),
        Calc(TypeCalculator::instance()), Self(Self), Strict(Strict) {
    Ann.SlotSummary.assign(FI.Symbols.numSlots(), Type::bottom());
  }

  State entryState() {
    State S(FI.Symbols.numSlots(), Type::bottom());
    const Function &F = *FI.F;
    for (size_t P = 0; P != F.params().size() && P != Sig.size(); ++P) {
      int Slot = F.paramSlots()[P];
      if (Slot >= 0) {
        S[Slot] = Opts.normalize(Sig[P]);
        noteDef(Slot, S[Slot]);
      }
    }
    return S;
  }

  bool join(State &Into, const State &From) {
    bool Changed = false;
    for (size_t I = 0; I != Into.size(); ++I) {
      Type J = Into[I].join(From[I]);
      if (J == Into[I])
        continue;
      if (Widen) {
        // Widening: bounds that keep growing go straight to their lattice
        // extremes so the engine converges within the iteration cap.
        if (!(J.maxShape() == Into[I].maxShape()))
          J.setShape(J.minShape(), ShapeBound::top());
        if (!(J.range() == Into[I].range()))
          J.setRange(Range::top());
      }
      Into[I] = J;
      Changed = true;
    }
    return Changed;
  }

  void setWidening(bool W) { Widen = W; }
  void setRecording(bool R) { Recording = R; }

  void transfer(State &S, const BasicBlock::Element &E);
  void transferTerminator(State &S, const BasicBlock &B) {
    if (B.cond())
      evalExpr(B.cond(), S);
  }

private:
  Type evalExpr(const Expr *E, State &S);
  std::vector<Type> evalCallLike(const IndexOrCallExpr *IC, State &S,
                                 size_t NumOuts);
  Type evalIndexRead(const IndexOrCallExpr *IC, const Type &Base, State &S);
  Type evalIndexArg(const Expr *Arg, const Type &Base, unsigned Dim,
                    unsigned NumDims, State &S);
  Type evalMatrixLit(const MatrixExpr *M, State &S);
  void execAssign(const AssignStmt *A, State &S);
  void indexedAssign(const AssignStmt *A, const LValue &LV, const Type &RHS,
                     State &S);

  /// Under Strict, true when an operand has no value (so neither has the
  /// operation).
  template <typename... Ts> bool noValue(const Ts &...Operands) const {
    return Strict && (Operands.isBottom() || ...);
  }
  bool noValue(const std::vector<Type> &Operands) const {
    return Strict && std::any_of(Operands.begin(), Operands.end(),
                                 [](const Type &T) { return T.isBottom(); });
  }

  void record(const Expr *E, const Type &T) {
    if (!Recording)
      return;
    auto [It, Inserted] = Ann.ExprTypes.try_emplace(E, T);
    if (!Inserted)
      It->second = It->second.join(T);
  }

  void noteDef(int Slot, const Type &T) {
    if (Recording || Ann.SlotSummary[Slot].isBottom())
      Ann.SlotSummary[Slot] = Ann.SlotSummary[Slot].join(T);
  }

  /// Dimension length bounds of \p Base for subscript dimension \p Dim of
  /// \p NumDims, as a range.
  static Range dimBounds(const Type &Base, unsigned Dim, unsigned NumDims) {
    uint64_t Lo, Hi;
    if (NumDims == 1) {
      Lo = Base.minShape().numel();
      Hi = Base.maxShape().numel();
    } else if (Dim == 0) {
      Lo = Base.minShape().Rows;
      Hi = Base.maxShape().Rows;
    } else {
      Lo = Base.minShape().Cols;
      Hi = Base.maxShape().Cols;
    }
    return Range{static_cast<double>(Lo),
                 Hi == ShapeBound::kUnknownDim
                     ? std::numeric_limits<double>::infinity()
                     : static_cast<double>(Hi)};
  }

  const FunctionInfo &FI;
  const TypeSignature &Sig;
  const InferOptions &Opts;
  TypeAnnotations &Ann;
  const TypeCalculator &Calc;
  const Type *Self;
  bool Strict;
  bool Widen = false;
  bool Recording = false;

  /// Binding for 'end' while evaluating a subscript expression.
  Range EndBounds = Range::top();
  bool EndValid = false;
};

//===----------------------------------------------------------------------===//
// Elements
//===----------------------------------------------------------------------===//

void TypeDomain::transfer(State &S, const BasicBlock::Element &E) {
  switch (E.K) {
  case BasicBlock::Element::Kind::ForInit:
    evalExpr(E.For->iterand(), S);
    return;
  case BasicBlock::Element::Kind::ForStep: {
    // The loop variable takes one column (or element) of the iterand. The
    // iterand is re-evaluated against the joined loop state, which is a
    // conservative superset of its preheader value.
    Type It = evalExpr(E.For->iterand(), S);
    Type Elem;
    if (It.maxShape().Rows <= 1) {
      Elem = Type::scalar(It.intrinsic() == IntrinsicType::Bottom
                              ? IntrinsicType::Top
                              : It.intrinsic(),
                          It.range());
    } else {
      Elem = Type(It.intrinsic(), ShapeBound{It.minShape().Rows, 1},
                  ShapeBound{It.maxShape().Rows, 1}, It.range());
    }
    Elem = Opts.normalize(Elem);
    int Slot = E.For->loopVarSlot();
    S[Slot] = Elem;
    noteDef(Slot, Elem);
    if (Recording) {
      auto [ItAnn, Inserted] = Ann.LoopVars.try_emplace(E.For, Elem);
      if (!Inserted)
        ItAnn->second = ItAnn->second.join(Elem);
    }
    return;
  }
  case BasicBlock::Element::Kind::Stmt:
    break;
  }

  const Stmt *St = E.S;
  switch (St->getKind()) {
  case Stmt::Kind::Expr:
    evalExpr(cast<ExprStmt>(St)->expr(), S);
    return;
  case Stmt::Kind::Assign:
    execAssign(cast<AssignStmt>(St), S);
    return;
  case Stmt::Kind::Clear: {
    const auto *C = cast<ClearStmt>(St);
    if (C->names().empty()) {
      for (Type &T : S)
        T = Type::bottom();
      return;
    }
    for (int Slot : C->slots())
      if (Slot >= 0)
        S[Slot] = Type::bottom();
    return;
  }
  default:
    majic_unreachable("control statement inside a basic block");
  }
}

void TypeDomain::execAssign(const AssignStmt *A, State &S) {
  // Multi-output assignments pull several result types from a call.
  std::vector<Type> RHS;
  if (A->isMulti()) {
    const auto *IC = dyn_cast<IndexOrCallExpr>(A->rhs());
    if (IC && IC->base()->symKind() != SymKind::Variable) {
      RHS = evalCallLike(IC, S, A->targets().size());
    }
    while (RHS.size() < A->targets().size())
      RHS.push_back(Type::top());
    record(A->rhs(), RHS.front());
  } else {
    RHS.push_back(evalExpr(A->rhs(), S));
  }

  for (size_t T = 0; T != A->targets().size(); ++T) {
    const LValue &LV = A->targets()[T];
    if (LV.VarSlot < 0)
      continue;
    if (!LV.HasParens) {
      Type NewT = Opts.normalize(RHS[T]);
      S[LV.VarSlot] = NewT;
      noteDef(LV.VarSlot, NewT);
      continue;
    }
    indexedAssign(A, LV, RHS[T], S);
  }
}

void TypeDomain::indexedAssign(const AssignStmt *A, const LValue &LV,
                               const Type &RHS, State &S) {
  Type Old = S[LV.VarSlot];
  if (Old.isBottom())
    Old = emptyMatrixType(); // auto-vivified []

  // Evaluate subscripts.
  std::vector<Type> Idx;
  unsigned NumDims = static_cast<unsigned>(LV.Indices.size());
  for (unsigned D = 0; D != NumDims; ++D)
    Idx.push_back(evalIndexArg(LV.Indices[D], Old, D, NumDims, S));

  // New intrinsic/range: the array absorbs the stored elements.
  IntrinsicType NewIT = intrinsicJoin(Old.intrinsic(), RHS.intrinsic());
  if (NewIT == IntrinsicType::Bottom)
    NewIT = RHS.intrinsic();
  if (!intrinsicLE(NewIT, IntrinsicType::Complex))
    NewIT = IntrinsicType::Top;
  Range NewR = Old.range().join(RHS.range());

  ShapeBound Min = Old.minShape(), Max = Old.maxShape();
  bool InBounds = true;

  auto GrowDim = [&](uint64_t &MinD, uint64_t &MaxD, const Type &I,
                     Range DimLen) {
    if (isa<ColonWildcardExpr>(LV.Indices[&I - Idx.data()])) {
      // ':' writes cover the existing extent; no growth.
      return;
    }
    bool Integral = integralSubscript(I);
    double ReqLo = I.range().Lo, ReqHi = I.range().Hi;
    if (!Integral || !(ReqHi <= DimLen.Lo))
      InBounds = false;
    // Writes guarantee the dimension is at least the subscript's lower
    // bound afterwards: this grows the *minimum* shape (the fact that
    // drives later subscript-check removal; Section 2.4).
    if (Integral && std::isfinite(ReqLo))
      MinD = std::max(MinD, static_cast<uint64_t>(std::floor(ReqLo)));
    if (std::isfinite(ReqHi)) {
      if (MaxD != ShapeBound::kUnknownDim)
        MaxD = std::max(MaxD, static_cast<uint64_t>(std::ceil(ReqHi)));
    } else {
      MaxD = ShapeBound::kUnknownDim;
    }
  };

  if (NumDims == 1) {
    // Linear assignment: vectors grow along their orientation.
    Range Len = dimBounds(Old, 0, 1);
    bool IsRow = Old.maxShape().Rows <= 1;
    bool IsCol = Old.maxShape().Cols <= 1 && !IsRow;
    if (IsRow) {
      GrowDim(Min.Cols, Max.Cols, Idx[0], Len);
      Min.Rows = std::max<uint64_t>(Min.Rows, Min.Cols ? 1 : 0);
      Max.Rows = std::max<uint64_t>(Max.Rows, 1);
    } else if (IsCol) {
      GrowDim(Min.Rows, Max.Rows, Idx[0], Len);
    } else {
      // Matrix (or unknown): linear writes cannot resize; bounds unknown.
      bool Integral = integralSubscript(Idx[0]);
      if (!Integral || !(Idx[0].range().Hi <= Len.Lo))
        InBounds = false;
    }
  } else if (NumDims == 2) {
    GrowDim(Min.Rows, Max.Rows, Idx[0], dimBounds(Old, 0, 2));
    GrowDim(Min.Cols, Max.Cols, Idx[1], dimBounds(Old, 1, 2));
  } else {
    InBounds = false;
    Min = ShapeBound::bottom();
    Max = ShapeBound::top();
  }

  Type NewT = Opts.normalize(Type(NewIT, Min, Max, NewR));
  S[LV.VarSlot] = NewT;
  noteDef(LV.VarSlot, NewT);

  if (Recording && A->targets().size() == 1) {
    TypeAnnotations::WriteFacts WF;
    WF.InBounds = InBounds && Opts.EnableRanges;
    auto [It, Inserted] = Ann.Writes.try_emplace(A, WF);
    if (!Inserted)
      It->second.InBounds &= WF.InBounds;
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Type TypeDomain::evalIndexArg(const Expr *Arg, const Type &Base, unsigned Dim,
                              unsigned NumDims, State &S) {
  if (isa<ColonWildcardExpr>(Arg)) {
    Range Len = dimBounds(Base, Dim, NumDims);
    Type T(IntrinsicType::Int,
           ShapeBound{Len.Lo > 0 ? static_cast<uint64_t>(Len.Lo) : 0, 1},
           ShapeBound{std::isfinite(Len.Hi)
                          ? static_cast<uint64_t>(Len.Hi)
                          : ShapeBound::kUnknownDim,
                      1},
           Range{1, Len.Hi});
    record(Arg, T);
    return T;
  }
  // Bind 'end' to the dimension bounds while evaluating the subscript.
  Range Saved = EndBounds;
  bool SavedValid = EndValid;
  EndBounds = dimBounds(Base, Dim, NumDims);
  EndValid = true;
  Type T = evalExpr(Arg, S);
  EndBounds = Saved;
  EndValid = SavedValid;
  return T;
}

Type TypeDomain::evalIndexRead(const IndexOrCallExpr *IC, const Type &Base,
                               State &S) {
  const auto &Args = IC->args();
  if (Args.empty())
    return Base;

  IntrinsicType ElemIT = Base.intrinsic();
  if (ElemIT == IntrinsicType::Bottom || ElemIT == IntrinsicType::String)
    ElemIT = ElemIT == IntrinsicType::String ? IntrinsicType::String
                                             : IntrinsicType::Top;

  if (Args.size() == 1) {
    Type I = evalIndexArg(Args[0], Base, 0, 1, S);
    bool Safe = integralSubscript(I) &&
                Base.minShape().numel() != 0 &&
                I.range().Hi <= static_cast<double>(Base.minShape().numel());
    if (Recording && Safe && Opts.EnableRanges && I.isScalar())
      Ann.SafeSubscripts.insert(IC);
    if (I.isScalar())
      return Type::scalar(ElemIT, Base.range());
    if (isa<ColonWildcardExpr>(Args[0])) {
      return Type(ElemIT, ShapeBound{Base.minShape().numel(), 1},
                  ShapeBound{Base.maxShape().numel() == ShapeBound::kUnknownDim
                                 ? ShapeBound::kUnknownDim
                                 : Base.maxShape().numel(),
                             1},
                  Base.range());
    }
    // Vector subscript: the selection count matches the subscript's numel;
    // orientation follows the base when it is a vector.
    uint64_t CntLo = I.minShape().numel();
    uint64_t CntHi = I.maxShape().numel();
    if (Base.maxShape().Cols == 1 && Base.maxShape().Rows != 1)
      return Type(ElemIT, ShapeBound{CntLo, CntLo ? uint64_t(1) : uint64_t(0)},
                  ShapeBound{CntHi, 1}, Base.range());
    return Type(ElemIT, ShapeBound{CntLo ? uint64_t(1) : uint64_t(0), CntLo},
                ShapeBound{1, CntHi}, Base.range());
  }

  if (Args.size() == 2) {
    Type R = evalIndexArg(Args[0], Base, 0, 2, S);
    Type C = evalIndexArg(Args[1], Base, 1, 2, S);
    bool RowsKnown = Base.minShape().Rows > 0;
    bool SafeR = integralSubscript(R) &&
                 R.range().Hi <= static_cast<double>(Base.minShape().Rows);
    bool SafeC = integralSubscript(C) &&
                 C.range().Hi <= static_cast<double>(Base.minShape().Cols);
    if (Recording && RowsKnown && SafeR && SafeC && Opts.EnableRanges &&
        R.isScalar() && C.isScalar())
      Ann.SafeSubscripts.insert(IC);
    auto CountBounds = [&](const Type &I, const Expr *Arg, unsigned Dim,
                           uint64_t &Lo, uint64_t &Hi) {
      if (isa<ColonWildcardExpr>(Arg)) {
        Range Len = dimBounds(Base, Dim, 2);
        Lo = static_cast<uint64_t>(Len.Lo);
        Hi = std::isfinite(Len.Hi) ? static_cast<uint64_t>(Len.Hi)
                                   : ShapeBound::kUnknownDim;
        return;
      }
      Lo = I.minShape().numel();
      Hi = I.maxShape().numel();
    };
    uint64_t RLo, RHi, CLo, CHi;
    CountBounds(R, Args[0], 0, RLo, RHi);
    CountBounds(C, Args[1], 1, CLo, CHi);
    return Type(ElemIT, ShapeBound{RLo, CLo}, ShapeBound{RHi, CHi},
                Base.range());
  }

  return Type::top();
}

std::vector<Type> TypeDomain::evalCallLike(const IndexOrCallExpr *IC, State &S,
                                           size_t NumOuts) {
  std::vector<Type> ArgTypes;
  for (const Expr *A : IC->args())
    ArgTypes.push_back(evalExpr(A, S));

  switch (IC->base()->symKind()) {
  case SymKind::Builtin:
    if (noValue(ArgTypes))
      return std::vector<Type>(std::max<size_t>(NumOuts, 1), Type::bottom());
    return Calc.builtin(IC->base()->name(), ArgTypes, NumOuts, Opts);
  case SymKind::UserFunction:
    // A self-call the compiled version would accept returns the function's
    // own output type.
    if (Self && NumOuts <= 1 && IC->base()->name() == FI.F->name() &&
        TypeSignature(ArgTypes).safeFor(Sig))
      return {*Self};
    [[fallthrough]];
  case SymKind::Ambiguous:
  default:
    // No other interprocedural propagation: user-call results are top.
    // Inlining (which runs before inference) removes the cases that matter.
    return std::vector<Type>(std::max<size_t>(NumOuts, 1), Type::top());
  }
}

Type TypeDomain::evalMatrixLit(const MatrixExpr *M, State &S) {
  // Row-wise horzcat typing followed by vertcat.
  auto AddDim = [](uint64_t A, uint64_t B) {
    return A == ShapeBound::kUnknownDim || B == ShapeBound::kUnknownDim
               ? ShapeBound::kUnknownDim
               : A + B;
  };

  IntrinsicType IT = IntrinsicType::Bottom;
  Range R = Range::bottom();
  uint64_t RowsLo = 0, RowsHi = 0, ColsLo = ShapeBound::kUnknownDim,
           ColsHi = 0;
  bool AllExact = true;
  bool NoValue = false;

  for (const auto &Row : M->rows()) {
    uint64_t RLo = 0, RHi = 1, CLo = 0, CHi = 0;
    bool RowExact = true;
    for (const Expr *Elem : Row) {
      Type T = evalExpr(Elem, S);
      NoValue |= noValue(T);
      IntrinsicType EIT = T.intrinsic() == IntrinsicType::Bool
                              ? IntrinsicType::Bool
                              : T.intrinsic();
      IT = intrinsicJoin(IT, EIT);
      R = R.join(T.range());
      auto Exact = T.exactShape();
      if (!Exact) {
        RowExact = false;
        CHi = AddDim(CHi, T.maxShape().Cols);
        RHi = std::max<uint64_t>(RHi, std::min<uint64_t>(
                                          T.maxShape().Rows, 1u << 30));
        continue;
      }
      CLo += Exact->Cols;
      CHi = AddDim(CHi, Exact->Cols);
      RLo = std::max(RLo, Exact->Rows);
      RHi = std::max(RHi, Exact->Rows);
    }
    AllExact &= RowExact;
    RowsLo += RowExact ? RLo : 0;
    RowsHi = AddDim(RowsHi, RHi);
    ColsLo = std::min(ColsLo, CLo);
    ColsHi = std::max(ColsHi, CHi);
  }
  if (M->rows().empty())
    return emptyMatrixType();
  if (NoValue)
    return Type::bottom();
  if (IT == IntrinsicType::Bottom)
    IT = IntrinsicType::Real;
  if (!intrinsicLE(IT, IntrinsicType::Complex) && IT != IntrinsicType::String)
    IT = IntrinsicType::Top;

  if (AllExact)
    return Type(IT, ShapeBound{RowsLo, ColsLo}, ShapeBound{RowsLo, ColsLo}, R);
  return Type(IT, ShapeBound::bottom(), ShapeBound{RowsHi, ColsHi}, R);
}

Type TypeDomain::evalExpr(const Expr *E, State &S) {
  Type T = [&]() -> Type {
    switch (E->getKind()) {
    case Expr::Kind::Number: {
      const auto *N = cast<NumberExpr>(E);
      if (N->isImaginary())
        return Type::scalar(IntrinsicType::Complex);
      return Type::constant(N->value());
    }
    case Expr::Kind::String: {
      const auto *Str = cast<StringExpr>(E);
      uint64_t Len = Str->value().size();
      return Type(IntrinsicType::String, ShapeBound{Len ? 1u : 0u, Len},
                  ShapeBound{Len ? 1u : 0u, Len}, Range::top());
    }
    case Expr::Kind::Ident: {
      const auto *Id = cast<IdentExpr>(E);
      switch (Id->symKind()) {
      case SymKind::Variable: {
        const Type &V = S[Id->varSlot()];
        return V.isBottom() && !Strict ? Type::top() : V;
      }
      case SymKind::Builtin:
        return Calc.builtin(Id->name(), {}, 1, Opts).front();
      default:
        return Type::top();
      }
    }
    case Expr::Kind::ColonWildcard:
      return Type::top();
    case Expr::Kind::EndRef:
      if (EndValid)
        return Type::scalar(IntrinsicType::Int, EndBounds);
      return Type::scalar(IntrinsicType::Int, Range::nonNegative());
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      Type A = evalExpr(U->operand(), S);
      if (noValue(A))
        return Type::bottom();
      return Calc.unary(U->op(), A, Opts);
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      Type L = evalExpr(B->lhs(), S);
      Type R = evalExpr(B->rhs(), S);
      if (noValue(L, R))
        return Type::bottom();
      return Calc.binary(B->op(), L, R, Opts);
    }
    case Expr::Kind::ShortCircuit: {
      const auto *B = cast<ShortCircuitExpr>(E);
      evalExpr(B->lhs(), S);
      evalExpr(B->rhs(), S);
      return Type::scalar(IntrinsicType::Bool, Range::interval(0, 1));
    }
    case Expr::Kind::Range: {
      const auto *R = cast<RangeExpr>(E);
      Type Lo = evalExpr(R->lo(), S);
      Type Hi = evalExpr(R->hi(), S);
      if (R->step()) {
        Type Step = evalExpr(R->step(), S);
        if (noValue(Lo, Step, Hi))
          return Type::bottom();
        return Calc.colon(Lo, &Step, Hi, Opts);
      }
      if (noValue(Lo, Hi))
        return Type::bottom();
      return Calc.colon(Lo, nullptr, Hi, Opts);
    }
    case Expr::Kind::Matrix:
      return evalMatrixLit(cast<MatrixExpr>(E), S);
    case Expr::Kind::IndexOrCall: {
      const auto *IC = cast<IndexOrCallExpr>(E);
      if (IC->base()->symKind() == SymKind::Variable) {
        const Type &Base = S[IC->base()->varSlot()];
        if (Base.isBottom())
          return Strict ? Type::bottom() : Type::top();
        return evalIndexRead(IC, Base, S);
      }
      std::vector<Type> Out = evalCallLike(IC, S, 1);
      return Out.empty() ? Type::bottom() : Out.front();
    }
    }
    majic_unreachable("invalid expression kind");
  }();
  T = Opts.normalize(T);
  record(E, T);
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

/// One inference run: the dataflow to a fixpoint, then a recording pass
/// over the converged solution (annotations, safety facts and the storage
/// summary all derive from final states only).
TypeAnnotations runInference(const FunctionInfo &FI, const TypeSignature &Sig,
                             const InferOptions &Opts, const Type *Self,
                             bool Strict) {
  TypeAnnotations Ann;
  TypeDomain Domain(FI, Sig, Opts, Ann, Self, Strict);
  auto BlockIn = runForwardDataflow(*FI.Cfg, Domain, Opts.MaxPasses);

  Ann.SlotSummary.assign(FI.Symbols.numSlots(), Type::bottom());
  Domain.setRecording(true);
  // Entry parameter types contribute to the summary.
  for (size_t P = 0; P != FI.F->params().size() && P != Sig.size(); ++P) {
    int Slot = FI.F->paramSlots()[P];
    if (Slot >= 0)
      Ann.SlotSummary[Slot] =
          Ann.SlotSummary[Slot].join(Opts.normalize(Sig[P]));
  }
  replayDataflow(*FI.Cfg, Domain, BlockIn);
  return Ann;
}

/// Rounds of the self-call fixpoint before it gives up (top).
constexpr unsigned kSelfResultRounds = 4;

/// The first output's type under \p Sig when safe self-calls return it:
/// the join of every value the output slot is assigned (the exit value is
/// one of them), iterated from bottom. Ranges and maximum shapes that still
/// grow after the first step widen to top. Bottom means no call returns.
Type selfResultType(const FunctionInfo &FI, const TypeSignature &Sig,
                    const InferOptions &Opts) {
  const Function &F = *FI.F;
  if (F.outs().empty() || F.outSlots()[0] < 0)
    return Type::top();
  int OutSlot = F.outSlots()[0];
  Type R = Type::bottom();
  for (unsigned Round = 0; Round != kSelfResultRounds; ++Round) {
    Type N = runInference(FI, Sig, Opts, &R, /*Strict=*/true)
                 .SlotSummary[OutSlot];
    if (N.le(R))
      return R;
    if (N.intrinsic() == IntrinsicType::Top)
      return Type::top(); // no class to learn: as good as giving up
    Type J = R.join(N);
    if (Round != 0) {
      if (!(J.maxShape() == R.maxShape()))
        J.setShape(J.minShape(), ShapeBound::top());
      if (!(J.range() == R.range()))
        J.setRange(Range::top());
    }
    R = Opts.normalize(J);
  }
  return Type::top();
}

} // namespace

InferResult majic::inferTypes(const FunctionInfo &FI, const TypeSignature &Sig,
                              const InferOptions &Opts) {
  InferResult Result;
  Result.Signature = Sig;
  if (!FI.callsItself()) {
    Result.Ann = runInference(FI, Sig, Opts, nullptr, /*Strict=*/false);
    return Result;
  }
  Type Self = selfResultType(FI.Uninlined ? *FI.Uninlined : FI, Sig, Opts);
  // Only an int scalar result is given out. A real-typed result may be of
  // class int at run time, and a typed home would rebox it as real where a
  // box keeps the class the next call's signature sees; a call that never
  // returns (bottom) has no value to type.
  if (!Self.isScalar() || Self.intrinsic() != IntrinsicType::Int)
    Self = Type::top();
  Result.Ann = runInference(FI, Sig, Opts, &Self, /*Strict=*/false);
  Result.Ann.SelfResult = Self;
  return Result;
}
