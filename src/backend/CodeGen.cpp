//===- backend/CodeGen.cpp - AST to IR code selection ---------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/CodeGen.h"

#include "ast/ASTVisit.h"
#include "ir/Builder.h"
#include "runtime/Builtins.h"

#include <algorithm>
#include <cmath>
#include <optional>

using namespace majic;
using rt::BinOp;

namespace {

/// Where a value currently lives during code selection.
struct Operand {
  enum class Kind : uint8_t { F, I, P, CPair, Vec };
  Kind K = Kind::P;
  int32_t R0 = -1; // for Vec: the id of its VecRegs
  int32_t R1 = -1; // imaginary register for CPair

  static Operand f(int32_t R) { return {Kind::F, R, -1}; }
  static Operand i(int32_t R) { return {Kind::I, R, -1}; }
  static Operand p(int32_t R) { return {Kind::P, R, -1}; }
  static Operand c(int32_t Re, int32_t Im) { return {Kind::CPair, Re, Im}; }
  static Operand v(int32_t Id) { return {Kind::Vec, Id, -1}; }
};

/// A small real array of exact shape held in registers: one F register per
/// element, column-major, plus the class it boxes to.
struct VecRegs {
  ShapeBound Shape;
  MClass Cls = MClass::Real;
  std::vector<int32_t> Els;
};

/// A variable's home storage.
struct VarHome {
  Operand::Kind K = Operand::Kind::P;
  int32_t R0 = -1;
  int32_t R1 = -1;
};

/// Thrown internally to abandon compilation of unsupported functions.
struct CannotCompile {};

class CodeGen {
public:
  CodeGen(const FunctionInfo &FI, const TypeAnnotations &Ann,
          const TypeSignature &Sig, const CodeGenOptions &Opts)
      : FI(FI), Ann(Ann), Sig(Sig), Opts(Opts),
        IR(std::make_unique<IRFunction>()), B(*IR) {}

  std::unique_ptr<IRFunction> run();

private:
  bool generic() const { return Opts.Mode == CodeGenMode::Generic; }

  Type typeOf(const Expr *E) const {
    return generic() ? Type::top() : Ann.typeOf(E);
  }

  /// The storage summary type of a slot.
  Type slotType(int Slot) const {
    if (generic() || Slot < 0 ||
        static_cast<size_t>(Slot) >= Ann.SlotSummary.size())
      return Type::top();
    return Ann.SlotSummary[Slot];
  }

  void assignHomes();
  std::vector<bool> vectorHomes(const std::vector<bool> &ForceBoxed);
  bool typedSelfConvention() const;
  void genPrologue();
  void genEpilogue();

  void genBlock(const Block &Body);
  void genStmt(const Stmt *S);
  void genAssign(const AssignStmt *A);
  void genFor(const ForStmt *For);
  void genCountedRangeFor(const ForStmt *For, const RangeExpr *R);

  Operand genExpr(const Expr *E);
  Operand genBinary(const BinaryExpr *E);
  Operand genUnary(const UnaryExpr *E);
  Operand genMatrixLit(const MatrixExpr *E);
  Operand genIndexRead(const IndexOrCallExpr *IC);
  bool unrollsLiteral(const MatrixExpr *E) const;
  std::optional<ShapeBound> unrolledShape(const BinaryExpr *E) const;
  std::optional<size_t> constElementIndex(const IndexOrCallExpr *IC,
                                          const ShapeBound &Shape) const;
  std::vector<Operand> genCall(const IndexOrCallExpr *IC, size_t NumOuts,
                               bool Statement = false);
  std::optional<Operand> genSelfCall(const IndexOrCallExpr *IC,
                                     const std::vector<Operand> &Args);
  std::vector<Operand> genBuiltinCall(const IndexOrCallExpr *IC,
                                      size_t NumOuts, bool Statement);
  std::vector<Operand> emitCall(Opcode Op, const std::string &Name,
                                const std::vector<int32_t> &ArgRegs,
                                size_t NumOuts, bool Statement);
  Operand genRand();
  void genIndexedStore(const LValue &LV, Operand RHS, const Type &RHSType,
                       const Stmt *S);
  void storeToHome(int Slot, Operand V);
  void displayVar(const std::string &Name, int Slot);

  //===--------------------------------------------------------------------===
  // Conversions
  //===--------------------------------------------------------------------===

  Operand toF(Operand V) {
    switch (V.K) {
    case Operand::Kind::F:
      return V;
    case Operand::Kind::I: {
      int32_t R = B.newF();
      B.emit(Opcode::IToF, R, V.R0);
      return Operand::f(R);
    }
    case Operand::Kind::P: {
      int32_t R = B.newF();
      B.emit(Opcode::UnboxF, R, V.R0);
      return Operand::f(R);
    }
    case Operand::Kind::CPair:
      return Operand::f(V.R0); // real part; callers ensure real typing
    case Operand::Kind::Vec:
      return toF(toP(V, Type::top()));
    }
    majic_unreachable("invalid operand kind");
  }

  Operand toI(Operand V) {
    switch (V.K) {
    case Operand::Kind::I:
      return V;
    case Operand::Kind::F: {
      int32_t R = B.newI();
      B.emit(Opcode::FToI, R, V.R0);
      return Operand::i(R);
    }
    case Operand::Kind::P: {
      int32_t R = B.newI();
      B.emit(Opcode::UnboxI, R, V.R0);
      return Operand::i(R);
    }
    case Operand::Kind::CPair: {
      int32_t R = B.newI();
      B.emit(Opcode::FToI, R, V.R0);
      return Operand::i(R);
    }
    case Operand::Kind::Vec:
      return toI(toP(V, Type::top()));
    }
    majic_unreachable("invalid operand kind");
  }

  /// Boxes to a P register. \p T guides the boxed class; a register vector
  /// boxes to its own class.
  Operand toP(Operand V, const Type &T) {
    switch (V.K) {
    case Operand::Kind::P:
      return V;
    case Operand::Kind::F: {
      int32_t R = B.newP();
      B.emit(Opcode::BoxF, R, V.R0);
      return Operand::p(R);
    }
    case Operand::Kind::I: {
      int32_t R = B.newP();
      B.emit(T.intrinsic() == IntrinsicType::Bool ? Opcode::BoxB : Opcode::BoxI,
             R, V.R0);
      return Operand::p(R);
    }
    case Operand::Kind::CPair: {
      int32_t R = B.newP();
      B.emit(Opcode::BoxC, R, V.R0, V.R1);
      return Operand::p(R);
    }
    case Operand::Kind::Vec:
      return materialize(Vecs[V.R0]);
    }
    majic_unreachable("invalid operand kind");
  }

  Operand toCPair(Operand V) {
    switch (V.K) {
    case Operand::Kind::CPair:
      return V;
    case Operand::Kind::F:
      return Operand::c(V.R0, B.fconst(0.0));
    case Operand::Kind::I: {
      Operand F = toF(V);
      return Operand::c(F.R0, B.fconst(0.0));
    }
    case Operand::Kind::P: {
      int32_t Re = B.newF(), Im = B.newF();
      B.emit(Opcode::UnboxReIm, Re, Im, V.R0);
      return Operand::c(Re, Im);
    }
    case Operand::Kind::Vec:
      return toCPair(toP(V, Type::top()));
    }
    majic_unreachable("invalid operand kind");
  }

  /// An I register holding the condition truth value.
  int32_t toCond(Operand V) {
    switch (V.K) {
    case Operand::Kind::I:
      return V.R0;
    case Operand::Kind::F: {
      int32_t R = B.newI();
      int32_t Zero = B.fconst(0.0);
      B.emitImmI(Opcode::FCmp, static_cast<int64_t>(CondCode::NE), R, V.R0,
                 Zero);
      return R;
    }
    case Operand::Kind::CPair: {
      // Conditions disregard imaginary parts (Section 2.5).
      int32_t R = B.newI();
      int32_t Zero = B.fconst(0.0);
      B.emitImmI(Opcode::FCmp, static_cast<int64_t>(CondCode::NE), R, V.R0,
                 Zero);
      return R;
    }
    case Operand::Kind::P: {
      int32_t R = B.newI();
      B.emit(Opcode::IsTrue, R, V.R0);
      return R;
    }
    case Operand::Kind::Vec:
      return toCond(toP(V, Type::top()));
    }
    majic_unreachable("invalid operand kind");
  }

  /// Loads a variable as an operand (its home registers, directly).
  Operand readVar(int Slot) {
    const VarHome &H = Homes[Slot];
    switch (H.K) {
    case Operand::Kind::F:
      return Operand::f(H.R0);
    case Operand::Kind::I:
      return Operand::i(H.R0);
    case Operand::Kind::CPair:
      return Operand::c(H.R0, H.R1);
    case Operand::Kind::P:
      return Operand::p(H.R0);
    case Operand::Kind::Vec:
      return Operand::v(H.R0);
    }
    majic_unreachable("invalid home kind");
  }

  /// Boxes register vector \p V into a fresh array: the one copy of the
  /// unrolled NewMat + StoreEl sequence.
  Operand materialize(const VecRegs &V) {
    int32_t Rows = B.iconst(static_cast<int64_t>(V.Shape.Rows));
    int32_t Cols = B.iconst(static_cast<int64_t>(V.Shape.Cols));
    int32_t Dst = B.newP();
    B.emitImmI(Opcode::NewMat, static_cast<int64_t>(V.Cls), Dst, Rows, Cols);
    for (size_t Idx = 0; Idx != V.Els.size(); ++Idx) {
      Instr St = Instr::make(Opcode::StoreEl, Dst,
                             B.iconst(static_cast<int64_t>(Idx)), V.Els[Idx]);
      St.Imm.I = static_cast<int64_t>(V.Cls);
      B.emit(St);
    }
    return Operand::p(Dst);
  }

  Operand newVec(ShapeBound Shape, MClass Cls, std::vector<int32_t> Els) {
    Vecs.push_back({Shape, Cls, std::move(Els)});
    return Operand::v(static_cast<int32_t>(Vecs.size()) - 1);
  }

  /// The MClass immediate for unboxed element stores.
  static MClass storeClassOf(const Type &T) {
    if (intrinsicLE(T.intrinsic(), IntrinsicType::Bool))
      return MClass::Bool;
    if (intrinsicLE(T.intrinsic(), IntrinsicType::Int))
      return MClass::Int;
    return MClass::Real;
  }

  /// True when \p T is a provably real (non-complex, non-string) scalar.
  static bool realScalarType(const Type &T) {
    return T.isScalar() && intrinsicLE(T.intrinsic(), IntrinsicType::Real) &&
           !T.isBottom();
  }
  static bool intScalarType(const Type &T) {
    return T.isScalar() && intrinsicLE(T.intrinsic(), IntrinsicType::Int) &&
           !T.isBottom();
  }
  static bool cplxScalarType(const Type &T) {
    return T.isScalar() &&
           intrinsicLE(T.intrinsic(), IntrinsicType::Complex) && !T.isBottom();
  }
  static bool realArrayType(const Type &T) {
    return intrinsicLE(T.intrinsic(), IntrinsicType::Real) && !T.isBottom();
  }

  /// Computes a 0-based scalar index register from subscript \p Arg against
  /// dimension \p Dim of \p BaseP (for 'end').
  int32_t genScalarIndex(const Expr *Arg, int32_t BaseP, unsigned Dim,
                         unsigned NumDims);

  struct EndContext {
    int32_t BaseP;
    unsigned Dim;
    unsigned NumDims;
  };

  //===--------------------------------------------------------------------===
  // Elementwise fusion (EwFuse selection)
  //===--------------------------------------------------------------------===

  /// One node of a fusable elementwise expression tree.
  struct FuseNode {
    const Expr *E;
    enum class Kind : uint8_t { Leaf, Bin, Neg, Intr } K;
    int32_t Arg = 0; ///< rt::BinOp for Bin, ScalarIntrinsic for Intr
    int L = -1, R = -1;
  };
  struct FuseTree {
    std::vector<FuseNode> Nodes;
    int Root = -1;
    unsigned NumOps = 0; ///< fused interior ops (Bin/Neg/Intr nodes)
  };

  int buildFuseNode(FuseTree &T, const Expr *E, int Avail);
  bool fuseErrorOrderSafe(const FuseTree &T) const;
  std::optional<Operand> tryFuseElementwise(const Expr *E,
                                            unsigned MinOps = 2);
  Operand emitFuseTree(const FuseTree &T);
  bool isSimpleFuseLeaf(const Expr *E) const;
  std::optional<double> builtinConstant(const IdentExpr *Id) const;

  const FunctionInfo &FI;
  const TypeAnnotations &Ann;
  const TypeSignature &Sig;
  CodeGenOptions Opts;
  std::unique_ptr<IRFunction> IR;
  IRBuilder B;

  std::vector<VarHome> Homes;
  /// The function takes its parameters and gives its result unboxed
  /// (ArgF/ArgI/OutI), and self-calls become CallSelf.
  bool TypedSelf = false;
  std::vector<VecRegs> Vecs; ///< register vectors, indexed by Operand::R0
  std::vector<EndContext> EndStack;
  std::vector<IRBuilder::Label> BreakLabels;
  std::vector<IRBuilder::Label> ContinueLabels;
  IRBuilder::Label EpilogueLabel;

  // Fused-pattern scratch operands filled by the Axpy matcher.
  Operand AxpyS, AxpyX, AxpyY;
};

//===----------------------------------------------------------------------===//
// Homes, prologue, epilogue
//===----------------------------------------------------------------------===//

void CodeGen::assignHomes() {
  const Function &F = *FI.F;
  unsigned NumSlots = FI.Symbols.numSlots();
  Homes.resize(NumSlots);

  // Indexed-assignment targets always live boxed (their storage must be a
  // real array object).
  std::vector<bool> ForceBoxed(NumSlots, false);
  visitStmts(F.body(), [&](const Stmt *S) {
    if (const auto *A = dyn_cast<AssignStmt>(S))
      for (const LValue &LV : A->targets())
        if (LV.HasParens && LV.VarSlot >= 0)
          ForceBoxed[LV.VarSlot] = true;
  });
  // Outputs not definitely assigned at exit stay boxed so "not assigned"
  // remains detectable.
  for (size_t O = 0; O != F.outs().size(); ++O) {
    int Slot = F.outSlots()[O];
    if (Slot >= 0 && (static_cast<size_t>(Slot) >= FI.DefiniteAtExit.size() ||
                      !FI.DefiniteAtExit[Slot]))
      ForceBoxed[Slot] = true;
  }

  std::vector<bool> InRegs = vectorHomes(ForceBoxed);

  for (unsigned Slot = 0; Slot != NumSlots; ++Slot) {
    VarHome H;
    Type T = slotType(static_cast<int>(Slot));
    if (InRegs[Slot]) {
      ShapeBound Shape = *T.exactShape();
      std::vector<int32_t> Els(Shape.numel());
      for (int32_t &R : Els)
        R = B.newF();
      H.K = Operand::Kind::Vec;
      H.R0 = newVec(Shape, storeClassOf(T), std::move(Els)).R0;
    } else if (!generic() && !ForceBoxed[Slot] && !T.isBottom()) {
      if (intScalarType(T)) {
        H.K = Operand::Kind::I;
        H.R0 = B.newI();
      } else if (realScalarType(T)) {
        H.K = Operand::Kind::F;
        H.R0 = B.newF();
      } else if (cplxScalarType(T)) {
        H.K = Operand::Kind::CPair;
        H.R0 = B.newF();
        H.R1 = B.newF();
      }
    }
    if (H.R0 < 0) {
      H.K = Operand::Kind::P;
      H.R0 = B.newP();
    }
    Homes[Slot] = H;
  }
}

/// Picks the slots that live as register vectors. A small real array of
/// exact shape lives in registers, one F register per element, when every
/// definition produces registers: an unrolled literal, an unrolled
/// elementwise op, or a copy of another such slot. Parameters, loop
/// variables and multiple-assignment targets come from boxes. No definition
/// may be logical, even where the summary joins it to a number: a register
/// vector boxes back with one class, and a logical value must stay a
/// logical array, or x(m) would stop being a mask.
///
/// Every other use of a register vector (a call argument, an output,
/// display, `end`, a variable subscript, a non-unrolled op) boxes it again
/// with a fresh NewMat + StoreEl, where a boxed slot allocates once per
/// definition. So a slot also stays boxed when such an escape sits in a
/// loop, or when it has more escapes than definitions.
std::vector<bool> CodeGen::vectorHomes(const std::vector<bool> &ForceBoxed) {
  const Function &F = *FI.F;
  unsigned NumSlots = FI.Symbols.numSlots();
  auto VecShape = [&](int Slot) -> std::optional<ShapeBound> {
    Type T = slotType(Slot);
    auto Shape = T.exactShape();
    if (generic() || ForceBoxed[Slot] || !realArrayType(T) || !Shape ||
        Shape->numel() < 2 || Shape->numel() > kMaxUnrollNumel)
      return std::nullopt;
    return Shape;
  };
  std::vector<bool> InRegs(NumSlots, false);
  for (unsigned Slot = 0; Slot != NumSlots; ++Slot)
    InRegs[Slot] = VecShape(static_cast<int>(Slot)).has_value();
  bool Changed = false;
  auto Drop = [&](int Slot) {
    if (Slot >= 0 && InRegs[Slot]) {
      InRegs[Slot] = false;
      Changed = true;
    }
  };
  for (int Slot : F.paramSlots())
    Drop(Slot);
  auto DefInRegs = [&](int Slot, const Expr *RHS) {
    Type T = typeOf(RHS);
    if (intrinsicLE(T.intrinsic(), IntrinsicType::Bool))
      return false;
    std::optional<ShapeBound> Shape;
    if (const auto *M = dyn_cast<MatrixExpr>(RHS)) {
      if (unrollsLiteral(M))
        Shape = T.exactShape();
    } else if (const auto *Bin = dyn_cast<BinaryExpr>(RHS)) {
      Shape = unrolledShape(Bin);
    } else if (const auto *Id = dyn_cast<IdentExpr>(RHS)) {
      if (Id->symKind() == SymKind::Variable && InRegs[Id->varSlot()])
        Shape = VecShape(Id->varSlot());
    }
    return Shape && *Shape == *VecShape(Slot);
  };

  // Escapes, mirroring what genExpr does with a register vector. \p Free
  // means the consumer takes the registers as they are: an unrolled op, a
  // copy into another register vector, a suppressed expression statement.
  std::vector<unsigned> Defs(NumSlots), Escapes(NumSlots);
  std::vector<bool> EscapesInLoop(NumSlots);
  unsigned LoopDepth = 0;
  auto Escape = [&](int Slot) {
    if (Slot < 0 || !InRegs[Slot])
      return;
    ++Escapes[Slot];
    if (LoopDepth != 0)
      EscapesInLoop[Slot] = true;
  };
  auto Use = [&](auto &Self, const Expr *E, bool Free) -> void {
    switch (E->getKind()) {
    case Expr::Kind::Ident:
      if (!Free && cast<IdentExpr>(E)->symKind() == SymKind::Variable)
        Escape(cast<IdentExpr>(E)->varSlot());
      return;
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      Self(Self, U->operand(), Free && U->op() == UnaryOpKind::Plus);
      return;
    }
    case Expr::Kind::Binary: {
      const auto *Bin = cast<BinaryExpr>(E);
      bool Unrolled = unrolledShape(Bin).has_value();
      Self(Self, Bin->lhs(), Unrolled);
      Self(Self, Bin->rhs(), Unrolled);
      return;
    }
    case Expr::Kind::ShortCircuit:
      Self(Self, cast<ShortCircuitExpr>(E)->lhs(), false);
      Self(Self, cast<ShortCircuitExpr>(E)->rhs(), false);
      return;
    case Expr::Kind::Range: {
      const auto *R = cast<RangeExpr>(E);
      Self(Self, R->lo(), false);
      if (R->step())
        Self(Self, R->step(), false);
      Self(Self, R->hi(), false);
      return;
    }
    case Expr::Kind::Matrix:
      for (const auto &Row : cast<MatrixExpr>(E)->rows())
        for (const Expr *Elem : Row)
          Self(Self, Elem, false);
      return;
    case Expr::Kind::IndexOrCall: {
      const auto *IC = cast<IndexOrCallExpr>(E);
      if (IC->base()->symKind() == SymKind::Variable) {
        int Slot = IC->base()->varSlot();
        if (IC->args().empty()) {
          Self(Self, IC->base(), Free); // x() is x
          return;
        }
        if (InRegs[Slot] && constElementIndex(IC, *VecShape(Slot)))
          return;
        Escape(Slot);
      }
      for (const Expr *A : IC->args())
        Self(Self, A, false);
      return;
    }
    default:
      return;
    }
  };
  auto Walk = [&](auto &Self, const Block &Body) -> void {
    for (const Stmt *S : Body) {
      if (const auto *ES = dyn_cast<ExprStmt>(S)) {
        Use(Use, ES->expr(), !ES->displays());
      } else if (const auto *A = dyn_cast<AssignStmt>(S)) {
        const LValue &LV0 = A->targets().front();
        Use(Use, A->rhs(),
            !A->isMulti() && !LV0.HasParens && LV0.VarSlot >= 0 &&
                InRegs[LV0.VarSlot]);
        for (const LValue &LV : A->targets()) {
          for (const Expr *Idx : LV.Indices)
            Use(Use, Idx, false);
          if (LV.VarSlot >= 0 && !LV.HasParens) {
            ++Defs[LV.VarSlot];
            if (InRegs[LV.VarSlot] &&
                (A->isMulti() || !DefInRegs(LV.VarSlot, A->rhs())))
              Drop(LV.VarSlot);
          }
          if (A->displays())
            Escape(LV.VarSlot);
        }
      } else if (const auto *If = dyn_cast<IfStmt>(S)) {
        for (const IfStmt::Branch &Br : If->branches()) {
          Use(Use, Br.Cond, false);
          Self(Self, Br.Body);
        }
        Self(Self, If->elseBlock());
      } else if (const auto *W = dyn_cast<WhileStmt>(S)) {
        ++LoopDepth;
        Use(Use, W->cond(), false);
        Self(Self, W->body());
        --LoopDepth;
      } else if (const auto *For = dyn_cast<ForStmt>(S)) {
        Drop(For->loopVarSlot());
        Use(Use, For->iterand(), false);
        ++LoopDepth;
        Self(Self, For->body());
        --LoopDepth;
      }
    }
  };

  // Dropping a slot can disqualify copies of it and turn copies into it
  // into escapes: iterate to a fixpoint.
  do {
    Changed = false;
    std::fill(Defs.begin(), Defs.end(), 0);
    std::fill(Escapes.begin(), Escapes.end(), 0);
    std::fill(EscapesInLoop.begin(), EscapesInLoop.end(), false);
    Walk(Walk, F.body());
    for (int Slot : F.outSlots())
      Escape(Slot);
    for (unsigned Slot = 0; Slot != NumSlots; ++Slot)
      if (EscapesInLoop[Slot] || Escapes[Slot] > Defs[Slot])
        Drop(static_cast<int>(Slot));
  } while (Changed);
  return InRegs;
}

/// The typed self-call convention applies when inference gave self-calls
/// an int scalar result (TypeAnnotations::SelfResult, which is never real:
/// see inferTypes), the function has one output, held in an I register or
/// in a box, and every parameter lives in an F or I register. Then a
/// self-call whose arguments arrive in those same registers passes them
/// and takes its result unboxed.
bool CodeGen::typedSelfConvention() const {
  const Function &F = *FI.F;
  const Type &R = Ann.SelfResult;
  if (generic() || !R.isScalar() || R.intrinsic() != IntrinsicType::Int ||
      F.outs().size() != 1 || F.outSlots()[0] < 0)
    return false;
  size_t NumParams = std::min(F.params().size(), Sig.size());
  if (NumParams != Sig.size() || NumParams > selfcall::kMaxArgs)
    return false;
  for (size_t P = 0; P != NumParams; ++P) {
    int Slot = F.paramSlots()[P];
    if (Slot < 0 || (Homes[Slot].K != Operand::Kind::F &&
                     Homes[Slot].K != Operand::Kind::I))
      return false;
  }
  // A register output must box exactly as OutI does.
  int Out = F.outSlots()[0];
  return Homes[Out].K == Operand::Kind::P ||
         (Homes[Out].K == Operand::Kind::I &&
          slotType(Out).intrinsic() != IntrinsicType::Bool);
}

void CodeGen::genPrologue() {
  const Function &F = *FI.F;
  size_t NumParams = std::min(F.params().size(), Sig.size());
  IR->NumParams = NumParams;
  TypedSelf = typedSelfConvention();
  for (size_t P = 0; P != NumParams; ++P) {
    int Slot = F.paramSlots()[P];
    if (Slot < 0)
      continue;
    const VarHome &H = Homes[Slot];
    if (TypedSelf) {
      B.emitImmI(H.K == Operand::Kind::F ? Opcode::ArgF : Opcode::ArgI,
                 static_cast<int64_t>(P), H.R0);
      continue;
    }
    if (H.K == Operand::Kind::P) {
      B.emitImmI(Opcode::LoadParam, static_cast<int64_t>(P), H.R0);
      continue;
    }
    int32_t Tmp = B.newP();
    B.emitImmI(Opcode::LoadParam, static_cast<int64_t>(P), Tmp);
    switch (H.K) {
    case Operand::Kind::F:
      B.emit(Opcode::UnboxF, H.R0, Tmp);
      break;
    case Operand::Kind::I:
      B.emit(Opcode::UnboxI, H.R0, Tmp);
      break;
    case Operand::Kind::CPair:
      B.emit(Opcode::UnboxReIm, H.R0, H.R1, Tmp);
      break;
    case Operand::Kind::P:
    case Operand::Kind::Vec: // parameters never get a register vector
      break;
    }
  }
}

void CodeGen::genEpilogue() {
  B.bind(EpilogueLabel);
  const Function &F = *FI.F;
  IR->NumOuts = F.outs().size();
  IR->OutNames = F.outs();
  for (size_t O = 0; O != F.outs().size(); ++O) {
    int Slot = F.outSlots()[O];
    if (Slot < 0)
      continue;
    if (TypedSelf && Homes[Slot].K == Operand::Kind::I) {
      B.emitImmI(Opcode::OutI, static_cast<int64_t>(O), Homes[Slot].R0);
      continue;
    }
    Operand V = readVar(Slot);
    Operand P = toP(V, slotType(Slot));
    B.emitImmI(Opcode::StoreOut, static_cast<int64_t>(O), P.R0);
  }
  B.emit(Opcode::Ret);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void CodeGen::genBlock(const Block &Body) {
  for (const Stmt *S : Body)
    genStmt(S);
}

void CodeGen::genStmt(const Stmt *S) {
  switch (S->getKind()) {
  case Stmt::Kind::Expr: {
    const auto *ES = cast<ExprStmt>(S);
    // Bare calls: builtin/user statements like disp(x) or plot-style calls.
    if (const auto *IC = dyn_cast<IndexOrCallExpr>(ES->expr())) {
      if (IC->base()->symKind() == SymKind::Builtin ||
          IC->base()->symKind() == SymKind::UserFunction) {
        // Statement context (nargout = 0): the call runs with no required
        // outputs; when unsuppressed, the optional first output (null when
        // the callee produced none) displays as ans.
        std::vector<Operand> Rs =
            genCall(IC, ES->displays() ? 1 : 0, /*Statement=*/true);
        if (ES->displays() && !Rs.empty())
          B.emitImmI(Opcode::Display, IR->internName("ans"), Rs.front().R0);
        return;
      }
    }
    Operand V = genExpr(ES->expr());
    if (ES->displays()) {
      Operand P = toP(V, typeOf(ES->expr()));
      B.emitImmI(Opcode::Display, IR->internName("ans"), P.R0);
    }
    return;
  }

  case Stmt::Kind::Assign:
    genAssign(cast<AssignStmt>(S));
    return;

  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    IRBuilder::Label Join = B.newLabel();
    for (const IfStmt::Branch &Br : If->branches()) {
      IRBuilder::Label Next = B.newLabel();
      int32_t Cond = toCond(genExpr(Br.Cond));
      B.brz(Cond, Next);
      genBlock(Br.Body);
      B.br(Join);
      B.bind(Next);
    }
    genBlock(If->elseBlock());
    B.bind(Join);
    return;
  }

  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    IRBuilder::Label Header = B.newLabel();
    IRBuilder::Label Exit = B.newLabel();
    B.bind(Header);
    int32_t Cond = toCond(genExpr(W->cond()));
    B.brz(Cond, Exit);
    BreakLabels.push_back(Exit);
    ContinueLabels.push_back(Header);
    genBlock(W->body());
    ContinueLabels.pop_back();
    BreakLabels.pop_back();
    B.br(Header);
    B.bind(Exit);
    return;
  }

  case Stmt::Kind::For:
    genFor(cast<ForStmt>(S));
    return;

  case Stmt::Kind::Break:
    if (BreakLabels.empty())
      throw CannotCompile();
    B.br(BreakLabels.back());
    return;
  case Stmt::Kind::Continue:
    if (ContinueLabels.empty())
      throw CannotCompile();
    B.br(ContinueLabels.back());
    return;
  case Stmt::Kind::Return:
    B.br(EpilogueLabel);
    return;

  case Stmt::Kind::Clear:
    // clear manipulates the dynamic workspace; such code is interpreted.
    throw CannotCompile();
  }
}

void CodeGen::genAssign(const AssignStmt *A) {
  if (A->isMulti()) {
    const auto *IC = dyn_cast<IndexOrCallExpr>(A->rhs());
    if (!IC || IC->base()->symKind() == SymKind::Variable)
      throw CannotCompile();
    std::vector<Operand> Rs = genCall(IC, A->targets().size());
    for (size_t T = 0; T != A->targets().size(); ++T) {
      const LValue &LV = A->targets()[T];
      if (LV.HasParens)
        genIndexedStore(LV, Rs[T], Type::top(), A);
      else
        storeToHome(LV.VarSlot, Rs[T]);
      if (A->displays())
        displayVar(LV.Name, LV.VarSlot);
    }
    return;
  }

  const LValue &LV = A->targets().front();
  Operand RHS = genExpr(A->rhs());
  if (LV.HasParens)
    genIndexedStore(LV, RHS, typeOf(A->rhs()), A);
  else
    storeToHome(LV.VarSlot, RHS);
  if (A->displays())
    displayVar(LV.Name, LV.VarSlot);
}

void CodeGen::displayVar(const std::string &Name, int Slot) {
  Operand P = toP(readVar(Slot), Type::top());
  B.emitImmI(Opcode::Display, IR->internName(Name), P.R0);
}

void CodeGen::storeToHome(int Slot, Operand V) {
  assert(Slot >= 0 && "store to unslotted variable");
  const VarHome &H = Homes[Slot];
  switch (H.K) {
  case Operand::Kind::F: {
    Operand F = toF(V);
    B.emit(Opcode::MovF, H.R0, F.R0);
    return;
  }
  case Operand::Kind::I: {
    Operand I = toI(V);
    B.emit(Opcode::MovI, H.R0, I.R0);
    return;
  }
  case Operand::Kind::CPair: {
    Operand C = toCPair(V);
    B.emit(Opcode::MovF, H.R0, C.R0);
    B.emit(Opcode::MovF, H.R1, C.R1);
    return;
  }
  case Operand::Kind::P: {
    Operand P = toP(V, slotType(Slot));
    B.emit(Opcode::MovP, H.R0, P.R0);
    return;
  }
  case Operand::Kind::Vec: {
    // assignHomes admits only definitions that produce register vectors.
    if (V.K != Operand::Kind::Vec)
      throw CannotCompile();
    std::vector<int32_t> Src = Vecs[V.R0].Els;
    const std::vector<int32_t> &Dst = Vecs[H.R0].Els;
    // A source element that is an earlier destination element (the
    // permutation v = [v(2), v(1)]) is saved before the moves overwrite it.
    for (size_t K = 0; K != Src.size(); ++K) {
      auto It = std::find(Dst.begin(), Dst.end(), Src[K]);
      if (static_cast<size_t>(It - Dst.begin()) < K) {
        int32_t T = B.newF();
        B.emit(Opcode::MovF, T, Src[K]);
        Src[K] = T;
      }
    }
    for (size_t K = 0; K != Src.size(); ++K)
      if (Src[K] != Dst[K])
        B.emit(Opcode::MovF, Dst[K], Src[K]);
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Loops
//===----------------------------------------------------------------------===//

void CodeGen::genFor(const ForStmt *For) {
  if (const auto *R = dyn_cast<RangeExpr>(For->iterand())) {
    Type LoT = typeOf(R->lo()), HiT = typeOf(R->hi());
    Type StepT = R->step() ? typeOf(R->step()) : Type::constant(1);
    if (!generic() && realScalarType(LoT) && realScalarType(HiT) &&
        realScalarType(StepT)) {
      genCountedRangeFor(For, R);
      return;
    }
  }

  // Generic path: iterate over the columns of the boxed iterand.
  Operand It = toP(genExpr(For->iterand()), typeOf(For->iterand()));
  int32_t NCols = B.newI();
  B.emit(Opcode::LenCols, NCols, It.R0);
  int32_t NRows = B.newI();
  B.emit(Opcode::LenRows, NRows, It.R0);
  int32_t K = B.iconst(0);

  IRBuilder::Label Header = B.newLabel();
  IRBuilder::Label Latch = B.newLabel();
  IRBuilder::Label Exit = B.newLabel();
  B.bind(Header);
  int32_t Cond = B.newI();
  B.emitImmI(Opcode::ICmp, static_cast<int64_t>(CondCode::LT), Cond, K, NCols);
  B.brz(Cond, Exit);

  // Bind the loop variable to column K (or element K of a row vector).
  const VarHome &H = Homes[For->loopVarSlot()];
  switch (H.K) {
  case Operand::Kind::F:
    B.emit(Opcode::LoadElChk, H.R0, It.R0, K);
    break;
  case Operand::Kind::I: {
    int32_t Tmp = B.newF();
    B.emit(Opcode::LoadElChk, Tmp, It.R0, K);
    B.emit(Opcode::FToI, H.R0, Tmp);
    break;
  }
  case Operand::Kind::CPair: {
    int32_t Col = B.newP();
    B.emit(Opcode::ColSlice, Col, It.R0, K);
    B.emit(Opcode::UnboxReIm, H.R0, H.R1, Col);
    break;
  }
  case Operand::Kind::P:
    B.emit(Opcode::ColSlice, H.R0, It.R0, K);
    break;
  case Operand::Kind::Vec:
    majic_unreachable("loop variables never get a register vector");
  }

  BreakLabels.push_back(Exit);
  ContinueLabels.push_back(Latch);
  genBlock(For->body());
  ContinueLabels.pop_back();
  BreakLabels.pop_back();

  B.bind(Latch);
  int32_t One = B.iconst(1);
  B.emit(Opcode::IAdd, K, K, One);
  B.br(Header);
  B.bind(Exit);
}

void CodeGen::genCountedRangeFor(const ForStmt *For, const RangeExpr *R) {
  Type LoT = typeOf(R->lo()), HiT = typeOf(R->hi());
  Type StepT = R->step() ? typeOf(R->step()) : Type::constant(1);
  bool AllInt = intScalarType(LoT) && intScalarType(HiT) &&
                intScalarType(StepT);

  Operand Lo = genExpr(R->lo());
  Operand Step = R->step() ? genExpr(R->step()) : Operand::i(B.iconst(1));
  Operand Hi = genExpr(R->hi());

  // Trip count: floor((hi - lo) / step) + 1, computed in floating point
  // (negative values simply fail the k < trip test).
  Operand LoF = toF(Lo), StepF = toF(Step), HiF = toF(Hi);
  int32_t Span = B.newF();
  B.emit(Opcode::FSub, Span, HiF.R0, LoF.R0);
  int32_t Quot = B.newF();
  B.emit(Opcode::FDiv, Quot, Span, StepF.R0);
  int32_t Floored = B.newF();
  B.emitImmI(Opcode::FIntr1, static_cast<int64_t>(ScalarIntrinsic::Floor),
             Floored, Quot);
  int32_t OneF = B.fconst(1.0);
  int32_t TripF = B.newF();
  B.emit(Opcode::FAdd, TripF, Floored, OneF);
  int32_t Trip = B.newI();
  B.emit(Opcode::FToI, Trip, TripF);

  int32_t K = B.iconst(0);
  IRBuilder::Label Header = B.newLabel();
  IRBuilder::Label Latch = B.newLabel();
  IRBuilder::Label Exit = B.newLabel();

  B.bind(Header);
  size_t HeaderIndex = IR->Code.size();
  int32_t Cond = B.newI();
  B.emitImmI(Opcode::ICmp, static_cast<int64_t>(CondCode::LT), Cond, K, Trip);
  B.brz(Cond, Exit);
  size_t BodyBegin = IR->Code.size();

  // Loop variable: lo + k * step.
  const VarHome &H = Homes[For->loopVarSlot()];
  if (H.K == Operand::Kind::I && AllInt) {
    Operand LoI = toI(Lo), StepI = toI(Step);
    int32_t T = B.newI();
    B.emit(Opcode::IMul, T, K, StepI.R0);
    B.emit(Opcode::IAdd, H.R0, LoI.R0, T);
  } else {
    int32_t KF = B.newF();
    B.emit(Opcode::IToF, KF, K);
    int32_t T = B.newF();
    B.emit(Opcode::FMul, T, KF, StepF.R0);
    int32_t VarF = B.newF();
    B.emit(Opcode::FAdd, VarF, LoF.R0, T);
    switch (H.K) {
    case Operand::Kind::F:
      B.emit(Opcode::MovF, H.R0, VarF);
      break;
    case Operand::Kind::I:
      B.emit(Opcode::FToI, H.R0, VarF);
      break;
    case Operand::Kind::CPair:
      B.emit(Opcode::MovF, H.R0, VarF);
      B.emitImmF(Opcode::FConst, 0.0, H.R1);
      break;
    case Operand::Kind::P:
      B.emit(Opcode::BoxF, H.R0, VarF);
      break;
    case Operand::Kind::Vec:
      majic_unreachable("loop variables never get a register vector");
    }
  }

  BreakLabels.push_back(Exit);
  ContinueLabels.push_back(Latch);
  genBlock(For->body());
  ContinueLabels.pop_back();
  BreakLabels.pop_back();

  B.bind(Latch);
  // The unroller expects LatchIndex to point at the counter IAdd; the
  // constant 1 is emitted just before it (inside the body region, which
  // stays straight-line).
  int32_t One = B.iconst(1);
  size_t LatchIndex = IR->Code.size();
  B.emit(Opcode::IAdd, K, K, One);
  B.br(Header);
  B.bind(Exit);
  size_t ExitIndex = IR->Code.size();

  // Innermost loops are recorded first (post-order), so the optimizer's
  // unroller prefers them.
  LoopMeta Meta;
  Meta.HeaderIndex = static_cast<uint32_t>(HeaderIndex);
  Meta.BodyBegin = static_cast<uint32_t>(BodyBegin);
  Meta.LatchIndex = static_cast<uint32_t>(LatchIndex);
  Meta.ExitIndex = static_cast<uint32_t>(ExitIndex);
  Meta.CounterReg = K;
  Meta.TripReg = Trip;
  IR->Loops.push_back(Meta);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Operand CodeGen::genExpr(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::Number: {
    const auto *N = cast<NumberExpr>(E);
    if (N->isImaginary())
      return Operand::c(B.fconst(0.0), B.fconst(N->value()));
    if (!generic() && N->isIntegral() && std::abs(N->value()) < 1e15)
      return Operand::i(B.iconst(static_cast<int64_t>(N->value())));
    return Operand::f(B.fconst(N->value()));
  }
  case Expr::Kind::String: {
    int32_t R = B.newP();
    B.emitImmI(Opcode::SConst,
               IR->internString(cast<StringExpr>(E)->value()), R);
    return Operand::p(R);
  }
  case Expr::Kind::Ident: {
    const auto *Id = cast<IdentExpr>(E);
    switch (Id->symKind()) {
    case SymKind::Variable: {
      // Constant propagation pays off here: a variable occurrence whose
      // inferred range is degenerate materializes as a literal (Figure 3's
      // sig0 collapses poly(254) to "return 254" this way).
      if (!generic()) {
        Type T = typeOf(E);
        if (auto C = T.constantValue()) {
          if (intScalarType(T))
            return Operand::i(B.iconst(static_cast<int64_t>(*C)));
          return Operand::f(B.fconst(*C));
        }
      }
      return readVar(Id->varSlot());
    }
    case SymKind::Builtin: {
      // Zero-argument builtin reference (pi, rand, i, ...).
      if (auto C = builtinConstant(Id))
        return Operand::f(B.fconst(*C));
      if (Id->name() == "i" || Id->name() == "j")
        return Operand::c(B.fconst(0.0), B.fconst(1.0));
      if (Id->name() == "rand")
        return genRand();
      return emitCall(Opcode::CallB, Id->name(), {}, 1, false).front();
    }
    case SymKind::UserFunction: {
      int32_t Dst = B.newP();
      Instr In = Instr::make(Opcode::CallU, B.pool({Dst}), 1, B.pool({}), 0);
      In.Imm.I = IR->internName(Id->name());
      B.emit(In);
      return Operand::p(Dst);
    }
    default:
      throw CannotCompile(); // ambiguous symbols are interpreted
    }
  }
  case Expr::Kind::ColonWildcard:
  case Expr::Kind::EndRef: {
    if (E->getKind() == Expr::Kind::EndRef) {
      if (EndStack.empty())
        throw CannotCompile();
      const EndContext &Ctx = EndStack.back();
      int32_t R = B.newI();
      Opcode Op = Ctx.NumDims == 1
                      ? Opcode::LenNumel
                      : (Ctx.Dim == 0 ? Opcode::LenRows : Opcode::LenCols);
      B.emit(Op, R, Ctx.BaseP);
      return Operand::i(R); // 1-based length
    }
    throw CannotCompile(); // bare ':' outside an index
  }
  case Expr::Kind::Unary:
    return genUnary(cast<UnaryExpr>(E));
  case Expr::Kind::Binary:
    return genBinary(cast<BinaryExpr>(E));
  case Expr::Kind::ShortCircuit: {
    const auto *SC = cast<ShortCircuitExpr>(E);
    int32_t Res = B.newI();
    IRBuilder::Label Short = B.newLabel();
    IRBuilder::Label Done = B.newLabel();
    int32_t CondL = toCond(genExpr(SC->lhs()));
    if (SC->isAnd())
      B.brz(CondL, Short);
    else
      B.brnz(CondL, Short);
    int32_t CondR = toCond(genExpr(SC->rhs()));
    B.emit(Opcode::MovI, Res, CondR);
    B.br(Done);
    B.bind(Short);
    B.emitImmI(Opcode::IConst, SC->isAnd() ? 0 : 1, Res);
    B.bind(Done);
    return Operand::i(Res);
  }
  case Expr::Kind::Range: {
    const auto *R = cast<RangeExpr>(E);
    Type LoT = typeOf(R->lo()), HiT = typeOf(R->hi());
    Type StepT = R->step() ? typeOf(R->step()) : Type::constant(1);
    if (!generic() && realScalarType(LoT) && realScalarType(HiT) &&
        realScalarType(StepT)) {
      Operand Lo = toF(genExpr(R->lo()));
      Operand Step = R->step() ? toF(genExpr(R->step()))
                               : Operand::f(B.fconst(1.0));
      Operand Hi = toF(genExpr(R->hi()));
      int32_t Dst = B.newP();
      B.emit(Opcode::MakeRange, Dst, Lo.R0, Step.R0, Hi.R0);
      return Operand::p(Dst);
    }
    // Boxed colon: MATLAB silently uses the real part of the first element
    // of non-scalar operands (Section 2.5 hint #1 relies on this).
    Operand Lo = toP(genExpr(R->lo()), LoT);
    Operand Step = R->step() ? toP(genExpr(R->step()), StepT)
                             : toP(Operand::f(B.fconst(1.0)), StepT);
    Operand Hi = toP(genExpr(R->hi()), HiT);
    int32_t Dst = B.newP();
    B.emit(Opcode::MakeRangeG, Dst, Lo.R0, Step.R0, Hi.R0);
    return Operand::p(Dst);
  }
  case Expr::Kind::Matrix:
    return genMatrixLit(cast<MatrixExpr>(E));
  case Expr::Kind::IndexOrCall: {
    const auto *IC = cast<IndexOrCallExpr>(E);
    if (IC->base()->symKind() == SymKind::Variable)
      return genIndexRead(IC);
    if (IC->base()->symKind() == SymKind::Ambiguous)
      throw CannotCompile();
    std::vector<Operand> Rs = genCall(IC, 1);
    if (Rs.empty())
      throw CannotCompile(); // zero-output call used as a value
    return Rs.front();
  }
  }
  majic_unreachable("invalid expression kind");
}

Operand CodeGen::genUnary(const UnaryExpr *E) {
  Type OpT = typeOf(E->operand());
  switch (E->op()) {
  case UnaryOpKind::Plus:
    return genExpr(E->operand());
  case UnaryOpKind::Neg: {
    if (!generic() && intScalarType(OpT)) {
      Operand V = toI(genExpr(E->operand()));
      int32_t R = B.newI();
      B.emit(Opcode::INeg, R, V.R0);
      return Operand::i(R);
    }
    if (!generic() && realScalarType(OpT)) {
      Operand V = toF(genExpr(E->operand()));
      int32_t R = B.newF();
      B.emit(Opcode::FNeg, R, V.R0);
      return Operand::f(R);
    }
    if (!generic() && cplxScalarType(OpT)) {
      Operand V = toCPair(genExpr(E->operand()));
      int32_t Re = B.newF(), Im = B.newF();
      B.emit(Opcode::FNeg, Re, V.R0);
      B.emit(Opcode::FNeg, Im, V.R1);
      return Operand::c(Re, Im);
    }
    break;
  }
  case UnaryOpKind::Not: {
    if (!generic() && realScalarType(OpT)) {
      int32_t Cond = toCond(genExpr(E->operand()));
      int32_t R = B.newI();
      B.emit(Opcode::INot, R, Cond);
      return Operand::i(R);
    }
    break;
  }
  case UnaryOpKind::CTranspose:
  case UnaryOpKind::Transpose: {
    if (!generic() && realScalarType(OpT))
      return genExpr(E->operand()); // scalar transpose is the identity
    if (!generic() && cplxScalarType(OpT) &&
        E->op() == UnaryOpKind::CTranspose) {
      Operand V = toCPair(genExpr(E->operand()));
      int32_t Im = B.newF();
      B.emit(Opcode::FNeg, Im, V.R1);
      return Operand::c(V.R0, Im);
    }
    break;
  }
  }
  // Elementwise fusion: -(<elementwise tree>) over a real array. (Unary
  // plus returned above: it compiles to its operand directly.)
  if (E->op() == UnaryOpKind::Neg)
    if (auto Fused = tryFuseElementwise(E))
      return *Fused;

  // Generic fallback.
  Operand P = toP(genExpr(E->operand()), OpT);
  int32_t Dst = B.newP();
  rt::UnOp Op = rt::UnOp::Plus;
  switch (E->op()) {
  case UnaryOpKind::Neg:
    Op = rt::UnOp::Neg;
    break;
  case UnaryOpKind::Plus:
    Op = rt::UnOp::Plus;
    break;
  case UnaryOpKind::Not:
    Op = rt::UnOp::Not;
    break;
  case UnaryOpKind::CTranspose:
    Op = rt::UnOp::CTranspose;
    break;
  case UnaryOpKind::Transpose:
    Op = rt::UnOp::Transpose;
    break;
  }
  B.emitImmI(Opcode::RtUn, static_cast<int64_t>(Op), Dst, P.R0);
  return Operand::p(Dst);
}

//===----------------------------------------------------------------------===//
// Elementwise fusion: grow a maximal tree of elementwise ops and emit one
// EwFuse instruction (one loop, one memory pass, zero temporaries).
//===----------------------------------------------------------------------===//

/// The constant a zero-argument builtin reference folds to: its inferred
/// value, or a constant builtin's value (pi, eps, Inf, ...) when ranges,
/// which carry that value, are off. Generic code folds neither.
std::optional<double> CodeGen::builtinConstant(const IdentExpr *Id) const {
  if (generic())
    return std::nullopt;
  if (auto C = typeOf(Id).constantValue())
    return C;
  return constantBuiltinValue(Id->name());
}

/// Non-throwing, non-printing leaf expressions: literals, variable reads,
/// and constant-folded builtin references. Only these may be evaluated
/// after an op that could raise a runtime dimension error without
/// reordering observable behavior (see fuseErrorOrderSafe).
bool CodeGen::isSimpleFuseLeaf(const Expr *E) const {
  if (isa<NumberExpr>(E))
    return true;
  if (const auto *Id = dyn_cast<IdentExpr>(E)) {
    if (Id->symKind() == SymKind::Variable)
      return true;
    if (Id->symKind() == SymKind::Builtin && builtinConstant(Id))
      return true;
  }
  return false;
}

/// Grows the fusable tree rooted at \p E. \p Avail is the number of free
/// evaluation-stack slots when this node starts executing (>= 1); a node
/// that cannot (or should not) fuse becomes a leaf. Scalar-typed subtrees
/// always become leaves: they are computed once in registers and broadcast,
/// instead of being re-evaluated per element inside the loop.
int CodeGen::buildFuseNode(FuseTree &T, const Expr *E, int Avail) {
  auto Leaf = [&] {
    T.Nodes.push_back({E, FuseNode::Kind::Leaf, 0, -1, -1});
    return static_cast<int>(T.Nodes.size()) - 1;
  };
  Type ResT = typeOf(E);
  if (!realArrayType(ResT))
    return Leaf(); // interior legality rechecks; belt and braces
  if (ResT.isScalar())
    return Leaf();

  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    // Unary plus is the identity (genUnary compiles it away); fuse
    // through it transparently.
    if (U->op() == UnaryOpKind::Plus &&
        realArrayType(typeOf(U->operand())))
      return buildFuseNode(T, U->operand(), Avail);
    if (U->op() == UnaryOpKind::Neg &&
        realArrayType(typeOf(U->operand()))) {
      int C = buildFuseNode(T, U->operand(), Avail);
      T.Nodes.push_back({E, FuseNode::Kind::Neg, 0, C, -1});
      ++T.NumOps;
      return static_cast<int>(T.Nodes.size()) - 1;
    }
    return Leaf();
  }

  if (const auto *Bin = dyn_cast<BinaryExpr>(E)) {
    if (Avail < 2)
      return Leaf(); // no slot left for the second operand
    Type LT = typeOf(Bin->lhs()), RT = typeOf(Bin->rhs());
    BinOp Op = Bin->op();
    bool Fusable =
        Op == BinOp::Add || Op == BinOp::Sub || Op == BinOp::ElemMul ||
        Op == BinOp::ElemRDiv || Op == BinOp::ElemPow ||
        // * and / degenerate to the elementwise op only with a scalar
        // multiplicand / divisor, and fuse only when the type proves it.
        (Op == BinOp::MatMul && (LT.isScalar() || RT.isScalar())) ||
        (Op == BinOp::MatRDiv && RT.isScalar());
    if (!Fusable || !realArrayType(LT) || !realArrayType(RT))
      return Leaf();
    // Left child evaluates with all our slots; its result then occupies
    // one while the right child evaluates.
    int L = buildFuseNode(T, Bin->lhs(), Avail);
    int R = buildFuseNode(T, Bin->rhs(), Avail - 1);
    T.Nodes.push_back(
        {E, FuseNode::Kind::Bin, static_cast<int32_t>(Op), L, R});
    ++T.NumOps;
    return static_cast<int>(T.Nodes.size()) - 1;
  }

  if (const auto *IC = dyn_cast<IndexOrCallExpr>(E)) {
    if (IC->base() && IC->base()->symKind() == SymKind::Builtin &&
        IC->args().size() == 1) {
      const BuiltinDef *Def =
          BuiltinTable::instance().lookup(IC->base()->name());
      // A Real result annotation is the domain certificate for guarded
      // intrinsics (sqrt of a proven-nonnegative array, or the optimistic
      // real-math rule backed by the runtime guard + deopt).
      if (Def && Def->Intrinsic != ScalarIntrinsic::None &&
          scalarIntrinsicArity(Def->Intrinsic) == 1 &&
          realArrayType(typeOf(IC->args()[0]))) {
        int C = buildFuseNode(T, IC->args()[0], Avail);
        T.Nodes.push_back({E, FuseNode::Kind::Intr,
                           static_cast<int32_t>(Def->Intrinsic), C, -1});
        ++T.NumOps;
        return static_cast<int>(T.Nodes.size()) - 1;
      }
    }
    return Leaf();
  }

  return Leaf();
}

/// The fused loop evaluates every leaf before it applies any operator,
/// while the interpreter interleaves them in post-order. That reordering
/// is observable only when an operator that can throw a runtime dimension
/// error executes (in interpreter order) before a leaf that can itself
/// throw or print. Reject such trees: once a possibly-mismatching Bin has
/// been seen in post-order, later leaves must be simple.
bool CodeGen::fuseErrorOrderSafe(const FuseTree &T) const {
  bool MismatchPossible = false;
  bool Safe = true;
  auto Walk = [&](auto &&Self, int N) -> void {
    const FuseNode &Node = T.Nodes[N];
    switch (Node.K) {
    case FuseNode::Kind::Leaf:
      if (MismatchPossible && !isSimpleFuseLeaf(Node.E))
        Safe = false;
      return;
    case FuseNode::Kind::Bin: {
      Self(Self, Node.L);
      Self(Self, Node.R);
      const auto *Bin = cast<BinaryExpr>(Node.E);
      Type LT = typeOf(Bin->lhs()), RT = typeOf(Bin->rhs());
      bool Compatible =
          LT.isScalar() || RT.isScalar() ||
          (LT.exactShape() && RT.exactShape() &&
           *LT.exactShape() == *RT.exactShape());
      if (!Compatible)
        MismatchPossible = true;
      return;
    }
    case FuseNode::Kind::Neg:
    case FuseNode::Kind::Intr:
      Self(Self, Node.L);
      return;
    }
  };
  Walk(Walk, T.Root);
  return Safe;
}

/// Emits the fused tree: leaves are evaluated depth-first left-to-right
/// (exactly the interpreter's subexpression order), boxed, and collected
/// into the operand table; the postfix program mirrors the tree.
Operand CodeGen::emitFuseTree(const FuseTree &T) {
  std::vector<int32_t> OperandRegs;
  std::vector<int32_t> Program;
  auto Emit = [&](auto &&Self, int N) -> void {
    const FuseNode &Node = T.Nodes[N];
    switch (Node.K) {
    case FuseNode::Kind::Leaf: {
      int32_t Reg = toP(genExpr(Node.E), typeOf(Node.E)).R0;
      // Re-pushing an already-tabled register (the same variable read
      // twice) reuses its slot; the push still re-broadcasts per element.
      int32_t Idx = -1;
      for (size_t K = 0; K != OperandRegs.size(); ++K)
        if (OperandRegs[K] == Reg)
          Idx = static_cast<int32_t>(K);
      if (Idx < 0) {
        Idx = static_cast<int32_t>(OperandRegs.size());
        OperandRegs.push_back(Reg);
      }
      Program.push_back(ew::encode(ew::EwOp::Push, Idx));
      return;
    }
    case FuseNode::Kind::Bin:
      Self(Self, Node.L);
      Self(Self, Node.R);
      Program.push_back(ew::encode(ew::EwOp::Bin, Node.Arg));
      return;
    case FuseNode::Kind::Neg:
      Self(Self, Node.L);
      Program.push_back(ew::encode(ew::EwOp::Neg));
      return;
    case FuseNode::Kind::Intr:
      Self(Self, Node.L);
      Program.push_back(ew::encode(ew::EwOp::Intr, Node.Arg));
      return;
    }
  };
  Emit(Emit, T.Root);

  int32_t Dst = B.newP();
  Instr In = Instr::make(Opcode::EwFuse, Dst, B.pool(OperandRegs),
                         static_cast<int32_t>(OperandRegs.size()),
                         B.pool(Program));
  In.Imm.I = static_cast<int64_t>(Program.size());
  B.emit(In);

  if (Opts.Stats) {
    Opts.Stats->Groups += 1;
    Opts.Stats->OpsFused += T.NumOps;
    Opts.Stats->TempsElided += T.NumOps - 1;
  }
  return Operand::p(Dst);
}

/// Root entry: fuse \p E when it heads a legal elementwise tree of at
/// least two ops with a provably real, non-scalar result. Single ops gain
/// nothing over the runtime's own parallel elementwise kernels, so they
/// keep the boxed path.
std::optional<Operand> CodeGen::tryFuseElementwise(const Expr *E,
                                                   unsigned MinOps) {
  if (generic() || !Opts.EnableFusion)
    return std::nullopt;
  Type ResT = typeOf(E);
  if (!realArrayType(ResT) || ResT.isScalar())
    return std::nullopt;
  FuseTree T;
  T.Root = buildFuseNode(T, E, ew::kMaxEwStack);
  if (T.NumOps < MinOps || !fuseErrorOrderSafe(T))
    return std::nullopt;
  return emitFuseTree(T);
}

/// The result shape when genBinary unrolls \p E into element registers: a
/// real elementwise op of exact shape within the unroll limit whose array
/// operands have that same shape.
std::optional<ShapeBound> CodeGen::unrolledShape(const BinaryExpr *E) const {
  Type LT = typeOf(E->lhs()), RT = typeOf(E->rhs()), ResT = typeOf(E);
  BinOp Op = E->op();
  bool ElemwiseOp = Op == BinOp::Add || Op == BinOp::Sub ||
                    Op == BinOp::ElemMul || Op == BinOp::ElemRDiv ||
                    Op == BinOp::ElemPow ||
                    ((Op == BinOp::MatMul || Op == BinOp::MatRDiv) &&
                     (LT.isScalar() || RT.isScalar()));
  if (generic() || !ElemwiseOp ||
      !realArrayType(LT) || !realArrayType(RT) || !realArrayType(ResT) ||
      ResT.isScalar())
    return std::nullopt;
  auto ResShape = ResT.exactShape();
  auto OkSide = [&](const Type &T) {
    return T.isScalar() ||
           (T.exactShape() && ResShape && *T.exactShape() == *ResShape);
  };
  if (!ResShape || ResShape->numel() > kMaxUnrollNumel || !OkSide(LT) ||
      !OkSide(RT))
    return std::nullopt;
  return ResShape;
}

Operand CodeGen::genBinary(const BinaryExpr *E) {
  Type LT = typeOf(E->lhs()), RT = typeOf(E->rhs());
  Type ResT = typeOf(E);
  BinOp Op = E->op();

  bool Fast = !generic();

  // Comparisons on real scalars.
  auto CondOf = [Op]() -> std::optional<CondCode> {
    switch (Op) {
    case BinOp::Lt:
      return CondCode::LT;
    case BinOp::Le:
      return CondCode::LE;
    case BinOp::Gt:
      return CondCode::GT;
    case BinOp::Ge:
      return CondCode::GE;
    case BinOp::Eq:
      return CondCode::EQ;
    case BinOp::Ne:
      return CondCode::NE;
    default:
      return std::nullopt;
    }
  };
  if (Fast && CondOf() && realScalarType(LT) && realScalarType(RT)) {
    if (intScalarType(LT) && intScalarType(RT)) {
      Operand L = toI(genExpr(E->lhs()));
      Operand R = toI(genExpr(E->rhs()));
      int32_t Dst = B.newI();
      B.emitImmI(Opcode::ICmp, static_cast<int64_t>(*CondOf()), Dst, L.R0,
                 R.R0);
      return Operand::i(Dst);
    }
    Operand L = toF(genExpr(E->lhs()));
    Operand R = toF(genExpr(E->rhs()));
    int32_t Dst = B.newI();
    B.emitImmI(Opcode::FCmp, static_cast<int64_t>(*CondOf()), Dst, L.R0,
               R.R0);
    return Operand::i(Dst);
  }

  // Comparisons on complex scalars disregard imaginary parts for
  // ordering; ==/~= compare both parts (handled generically below).
  if (Fast && CondOf() && cplxScalarType(LT) && cplxScalarType(RT) &&
      Op != BinOp::Eq && Op != BinOp::Ne) {
    Operand L = toCPair(genExpr(E->lhs()));
    Operand R = toCPair(genExpr(E->rhs()));
    int32_t Dst = B.newI();
    B.emitImmI(Opcode::FCmp, static_cast<int64_t>(*CondOf()), Dst, L.R0,
               R.R0);
    return Operand::i(Dst);
  }

  // Element-wise logical on scalars.
  if (Fast && (Op == BinOp::And || Op == BinOp::Or) && realScalarType(LT) &&
      realScalarType(RT)) {
    int32_t L = toCond(genExpr(E->lhs()));
    int32_t R = toCond(genExpr(E->rhs()));
    int32_t Dst = B.newI();
    B.emit(Op == BinOp::And ? Opcode::IAnd : Opcode::IOr, Dst, L, R);
    return Operand::i(Dst);
  }

  // Scalar arithmetic: "probably the most important performance
  // optimization in MaJIC" (Section 2.6.1).
  bool ArithOp = Op == BinOp::Add || Op == BinOp::Sub || Op == BinOp::MatMul ||
                 Op == BinOp::ElemMul || Op == BinOp::MatRDiv ||
                 Op == BinOp::ElemRDiv || Op == BinOp::MatLDiv ||
                 Op == BinOp::ElemLDiv || Op == BinOp::MatPow ||
                 Op == BinOp::ElemPow;
  if (Fast && ArithOp && realScalarType(LT) && realScalarType(RT) &&
      realScalarType(ResT)) {
    bool IntOp = intScalarType(LT) && intScalarType(RT) &&
                 intScalarType(ResT) &&
                 (Op == BinOp::Add || Op == BinOp::Sub ||
                  Op == BinOp::MatMul || Op == BinOp::ElemMul);
    if (IntOp) {
      Operand L = toI(genExpr(E->lhs()));
      Operand R = toI(genExpr(E->rhs()));
      int32_t Dst = B.newI();
      Opcode Code = Op == BinOp::Add   ? Opcode::IAdd
                    : Op == BinOp::Sub ? Opcode::ISub
                                       : Opcode::IMul;
      B.emit(Code, Dst, L.R0, R.R0);
      return Operand::i(Dst);
    }
    Operand L = toF(genExpr(E->lhs()));
    Operand R = toF(genExpr(E->rhs()));
    int32_t Dst = B.newF();
    switch (Op) {
    case BinOp::Add:
      B.emit(Opcode::FAdd, Dst, L.R0, R.R0);
      break;
    case BinOp::Sub:
      B.emit(Opcode::FSub, Dst, L.R0, R.R0);
      break;
    case BinOp::MatMul:
    case BinOp::ElemMul:
      B.emit(Opcode::FMul, Dst, L.R0, R.R0);
      break;
    case BinOp::MatRDiv:
    case BinOp::ElemRDiv:
      B.emit(Opcode::FDiv, Dst, L.R0, R.R0);
      break;
    case BinOp::MatLDiv:
    case BinOp::ElemLDiv:
      B.emit(Opcode::FDiv, Dst, R.R0, L.R0);
      break;
    case BinOp::MatPow:
    case BinOp::ElemPow:
      // The annotation being real proves the domain (pow:real-safe rule).
      B.emit(Opcode::FPow, Dst, L.R0, R.R0);
      break;
    default:
      majic_unreachable("not an arithmetic op");
    }
    return Operand::f(Dst);
  }

  // Complex scalar arithmetic, inlined as register pairs.
  if (Fast && cplxScalarType(LT) && cplxScalarType(RT) &&
      (Op == BinOp::Add || Op == BinOp::Sub || Op == BinOp::MatMul ||
       Op == BinOp::ElemMul || Op == BinOp::MatRDiv ||
       Op == BinOp::ElemRDiv)) {
    Operand L = toCPair(genExpr(E->lhs()));
    Operand R = toCPair(genExpr(E->rhs()));
    int32_t Re = B.newF(), Im = B.newF();
    switch (Op) {
    case BinOp::Add:
      B.emit(Opcode::FAdd, Re, L.R0, R.R0);
      B.emit(Opcode::FAdd, Im, L.R1, R.R1);
      break;
    case BinOp::Sub:
      B.emit(Opcode::FSub, Re, L.R0, R.R0);
      B.emit(Opcode::FSub, Im, L.R1, R.R1);
      break;
    case BinOp::MatMul:
    case BinOp::ElemMul: {
      // (a+bi)(c+di) = (ac - bd) + (ad + bc)i
      int32_t AC = B.newF(), BD = B.newF(), AD = B.newF(), BC = B.newF();
      B.emit(Opcode::FMul, AC, L.R0, R.R0);
      B.emit(Opcode::FMul, BD, L.R1, R.R1);
      B.emit(Opcode::FMul, AD, L.R0, R.R1);
      B.emit(Opcode::FMul, BC, L.R1, R.R0);
      B.emit(Opcode::FSub, Re, AC, BD);
      B.emit(Opcode::FAdd, Im, AD, BC);
      break;
    }
    case BinOp::MatRDiv:
    case BinOp::ElemRDiv: {
      // (a+bi)/(c+di) = ((ac+bd) + (bc-ad)i) / (c^2+d^2)
      int32_t CC = B.newF(), DD = B.newF(), Den = B.newF();
      B.emit(Opcode::FMul, CC, R.R0, R.R0);
      B.emit(Opcode::FMul, DD, R.R1, R.R1);
      B.emit(Opcode::FAdd, Den, CC, DD);
      int32_t AC = B.newF(), BD = B.newF(), BC = B.newF(), AD = B.newF();
      B.emit(Opcode::FMul, AC, L.R0, R.R0);
      B.emit(Opcode::FMul, BD, L.R1, R.R1);
      B.emit(Opcode::FMul, BC, L.R1, R.R0);
      B.emit(Opcode::FMul, AD, L.R0, R.R1);
      int32_t NumRe = B.newF(), NumIm = B.newF();
      B.emit(Opcode::FAdd, NumRe, AC, BD);
      B.emit(Opcode::FSub, NumIm, BC, AD);
      B.emit(Opcode::FDiv, Re, NumRe, Den);
      B.emit(Opcode::FDiv, Im, NumIm, Den);
      break;
    }
    default:
      majic_unreachable("unhandled complex op");
    }
    return Operand::c(Re, Im);
  }

  // Small fixed-shape element-wise operations unroll completely into
  // element registers (Section 2.6.1: "very effective on small (up to 3x3)
  // matrices and vectors because it completely eliminates loop overhead").
  if (auto ResShape = unrolledShape(E)) {
    Operand L = genExpr(E->lhs());
    Operand R = genExpr(E->rhs());
    // Scalar sides become one F register; register vectors are read in
    // place; boxed array sides are read with unchecked element loads.
    auto Side = [&](Operand V, const Type &T) -> Operand {
      if (T.isScalar())
        return toF(V);
      return V.K == Operand::Kind::Vec ? V : toP(V, T);
    };
    L = Side(L, LT);
    R = Side(R, RT);
    std::vector<int32_t> Els(ResShape->numel());
    for (size_t Idx = 0; Idx != Els.size(); ++Idx) {
      int32_t IdxReg = -1;
      auto Element = [&](Operand V) {
        if (V.K == Operand::Kind::F)
          return V.R0;
        if (V.K == Operand::Kind::Vec)
          return Vecs[V.R0].Els[Idx];
        if (IdxReg < 0)
          IdxReg = B.iconst(static_cast<int64_t>(Idx));
        int32_t El = B.newF();
        B.emit(Opcode::LoadEl, El, V.R0, IdxReg);
        return El;
      };
      int32_t LV = Element(L), RV = Element(R);
      int32_t EV = B.newF();
      switch (Op) {
      case BinOp::Add:
        B.emit(Opcode::FAdd, EV, LV, RV);
        break;
      case BinOp::Sub:
        B.emit(Opcode::FSub, EV, LV, RV);
        break;
      case BinOp::ElemMul:
      case BinOp::MatMul:
        B.emit(Opcode::FMul, EV, LV, RV);
        break;
      case BinOp::ElemRDiv:
      case BinOp::MatRDiv:
        B.emit(Opcode::FDiv, EV, LV, RV);
        break;
      case BinOp::ElemPow:
        B.emit(Opcode::FPow, EV, LV, RV);
        break;
      default:
        majic_unreachable("unexpected unrolled op");
      }
      Els[Idx] = EV;
    }
    return newVec(*ResShape, storeClassOf(ResT), std::move(Els));
  }

  // Fused BLAS patterns (Section 2.6.1's dgemv selection rule).
  if (Fast && Op == BinOp::Add) {
    // A chain of three or more elementwise ops is one EwFuse pass; Axpy
    // would claim only its a*X + Y root and leave the rest as separate
    // boxed passes. Plain two-op a*X + Y still prefers the Axpy kernel.
    if (auto Fused = tryFuseElementwise(E, /*MinOps=*/3))
      return *Fused;
    // a*X + Y / Y + a*X with real vector X, Y: Axpy.
    auto TryAxpy = [&](const Expr *MulSide, const Expr *Other) -> bool {
      const auto *Mul = dyn_cast<BinaryExpr>(MulSide);
      if (!Mul || Mul->op() != BinOp::MatMul)
        return false;
      Type ST = typeOf(Mul->lhs()), XT = typeOf(Mul->rhs());
      const Expr *SE = Mul->lhs(), *XE = Mul->rhs();
      if (!realScalarType(ST)) {
        std::swap(SE, XE);
        std::swap(ST, XT);
      }
      Type OT = typeOf(Other);
      if (!realScalarType(ST) || !realArrayType(XT) || XT.isScalar() ||
          !realArrayType(OT) || OT.isScalar())
        return false;
      AxpyS = toF(genExpr(SE));
      AxpyX = toP(genExpr(XE), XT);
      AxpyY = toP(genExpr(Other), OT);
      return true;
    };
    if (TryAxpy(E->lhs(), E->rhs()) || TryAxpy(E->rhs(), E->lhs())) {
      int32_t Dst = B.newP();
      B.emit(Opcode::Axpy, Dst, AxpyS.R0, AxpyX.R0, AxpyY.R0);
      return Operand::p(Dst);
    }
  }
  // X' * Y and X.' * Y over real arrays: one product that reads X
  // transposed instead of copying it (MatMulT), unboxed as DotT when both
  // are column vectors and the product is typed scalar. A scalar side
  // keeps the broadcast rules above; complex or generic sides keep the
  // boxed pair below, which conjugates.
  if (const auto *U = dyn_cast<UnaryExpr>(E->lhs());
      Fast && Op == BinOp::MatMul && U &&
      (U->op() == UnaryOpKind::CTranspose ||
       U->op() == UnaryOpKind::Transpose)) {
    Type XT = typeOf(U->operand());
    if (realArrayType(XT) && !XT.isScalar() && realArrayType(RT) &&
        !RT.isScalar()) {
      int64_t UOp = static_cast<int64_t>(U->op() == UnaryOpKind::CTranspose
                                             ? rt::UnOp::CTranspose
                                             : rt::UnOp::Transpose);
      Operand X = toP(genExpr(U->operand()), XT);
      Operand Y = toP(genExpr(E->rhs()), RT);
      if (XT.maxShape().Cols == 1 && RT.maxShape().Cols == 1 &&
          realScalarType(ResT)) {
        int32_t Dst = B.newF();
        B.emitImmI(Opcode::DotT, UOp, Dst, X.R0, Y.R0);
        return Operand::f(Dst);
      }
      int32_t Dst = B.newP();
      B.emitImmI(Opcode::MatMulT, UOp, Dst, X.R0, Y.R0);
      return Operand::p(Dst);
    }
  }
  if (Fast && Op == BinOp::MatMul && realArrayType(LT) && !LT.isScalar() &&
      realArrayType(RT) && RT.maxShape().Cols == 1 && !RT.isScalar()) {
    Operand A = toP(genExpr(E->lhs()), LT);
    Operand X = toP(genExpr(E->rhs()), RT);
    int32_t Dst = B.newP();
    B.emit(Opcode::Gemv, Dst, A.R0, X.R0);
    return Operand::p(Dst);
  }

  // Elementwise fusion: a chain of two or more elementwise ops over real
  // arrays becomes one EwFuse loop instead of per-op boxed passes.
  if (auto Fused = tryFuseElementwise(E))
    return *Fused;

  // The implicit default rule: boxed generic operation.
  Operand L = toP(genExpr(E->lhs()), LT);
  Operand R = toP(genExpr(E->rhs()), RT);
  int32_t Dst = B.newP();
  B.emitImmI(Opcode::RtBin, static_cast<int64_t>(Op), Dst, L.R0, R.R0);
  return Operand::p(Dst);
}

//===----------------------------------------------------------------------===//
// Matrix literals
//===----------------------------------------------------------------------===//

/// True when \p E is a small, exactly shaped, real literal of scalars,
/// built fully unrolled (Section 2.6.1: vector concatenation "completely
/// unrolled when exact array shapes are known").
bool CodeGen::unrollsLiteral(const MatrixExpr *E) const {
  Type T = typeOf(E);
  auto Exact = T.exactShape();
  if (generic() || !Exact || Exact->numel() > kMaxUnrollNumel ||
      !realArrayType(T) || E->rows().empty())
    return false;
  for (const auto &Row : E->rows())
    for (const Expr *Elem : Row)
      if (!realScalarType(typeOf(Elem)))
        return false;
  return true;
}

Operand CodeGen::genMatrixLit(const MatrixExpr *E) {
  if (unrollsLiteral(E)) {
    Type T = typeOf(E);
    ShapeBound Exact = *T.exactShape();
    std::vector<int32_t> Els(Exact.numel());
    for (size_t RIdx = 0; RIdx != E->rows().size(); ++RIdx) {
      const auto &Row = E->rows()[RIdx];
      for (size_t CIdx = 0; CIdx != Row.size(); ++CIdx)
        Els[CIdx * Exact.Rows + RIdx] = toF(genExpr(Row[CIdx])).R0;
    }
    return newVec(Exact, storeClassOf(T), std::move(Els));
  }

  // Generic: horzcat each row, vertcat the rows.
  if (E->rows().empty()) {
    int32_t Zero = B.iconst(0);
    int32_t Dst = B.newP();
    B.emitImmI(Opcode::NewMat, static_cast<int64_t>(MClass::Real), Dst, Zero,
               Zero);
    return Operand::p(Dst);
  }
  std::vector<int32_t> RowRegs;
  for (const auto &Row : E->rows()) {
    std::vector<int32_t> Elems;
    for (const Expr *Elem : Row)
      Elems.push_back(toP(genExpr(Elem), typeOf(Elem)).R0);
    int32_t RowDst = B.newP();
    B.emit(Opcode::HorzCat, RowDst, B.pool(Elems),
           static_cast<int32_t>(Elems.size()));
    RowRegs.push_back(RowDst);
  }
  if (RowRegs.size() == 1)
    return Operand::p(RowRegs.front());
  int32_t Dst = B.newP();
  B.emit(Opcode::VertCat, Dst, B.pool(RowRegs),
         static_cast<int32_t>(RowRegs.size()));
  return Operand::p(Dst);
}

//===----------------------------------------------------------------------===//
// Indexing
//===----------------------------------------------------------------------===//

int32_t CodeGen::genScalarIndex(const Expr *Arg, int32_t BaseP, unsigned Dim,
                                unsigned NumDims) {
  EndStack.push_back({BaseP, Dim, NumDims});
  Operand V = genExpr(Arg);
  EndStack.pop_back();

  Type T = typeOf(Arg);
  if (V.K == Operand::Kind::I ||
      (intScalarType(T) && V.K != Operand::Kind::P)) {
    Operand I = toI(V);
    int32_t One = B.iconst(1);
    int32_t R = B.newI();
    B.emit(Opcode::ISub, R, I.R0, One);
    return R;
  }
  // Not provably integral: validate and convert (1-based -> 0-based).
  Operand F = toF(V);
  int32_t R = B.newI();
  B.emit(Opcode::FToIdx, R, F.R0);
  return R;
}

/// The 0-based element of an array of shape \p Shape that \p IC reads, when
/// its one or two subscripts are in-range integral constants: literals, or
/// variables whose value inference pinned.
std::optional<size_t>
CodeGen::constElementIndex(const IndexOrCallExpr *IC,
                           const ShapeBound &Shape) const {
  if (IC->args().empty() || IC->args().size() > 2)
    return std::nullopt;
  std::vector<double> Subs;
  for (const Expr *A : IC->args()) {
    const auto *Id = dyn_cast<IdentExpr>(A);
    if (!isa<NumberExpr>(A) && !(Id && Id->symKind() == SymKind::Variable))
      return std::nullopt;
    auto C = typeOf(A).constantValue();
    if (!C || *C < 1 || *C != std::floor(*C))
      return std::nullopt;
    Subs.push_back(*C);
  }
  if (Subs.size() == 1)
    return Subs[0] <= Shape.numel()
               ? std::optional<size_t>(static_cast<size_t>(Subs[0]) - 1)
               : std::nullopt;
  if (Subs[0] > Shape.Rows || Subs[1] > Shape.Cols)
    return std::nullopt;
  return (static_cast<size_t>(Subs[1]) - 1) * Shape.Rows +
         (static_cast<size_t>(Subs[0]) - 1);
}

Operand CodeGen::genIndexRead(const IndexOrCallExpr *IC) {
  int Slot = IC->base()->varSlot();
  Operand Base = readVar(Slot);
  Type BaseT = slotType(Slot);
  if (IC->args().empty())
    return Base; // x() is x
  if (Base.K == Operand::Kind::Vec) {
    const VecRegs &V = Vecs[Base.R0];
    if (auto Idx = constElementIndex(IC, V.Shape))
      return Operand::f(V.Els[*Idx]);
  }
  Operand BaseP = toP(Base, BaseT);

  // Fast path: scalar real element read.
  bool FastOK = !generic() && realArrayType(BaseT) &&
                IC->args().size() <= 2;
  if (FastOK) {
    for (const Expr *A : IC->args())
      FastOK &= !isa<ColonWildcardExpr>(A) &&
                typeOf(A).isScalar() &&
                intrinsicLE(typeOf(A).intrinsic(), IntrinsicType::Real);
  }
  if (FastOK) {
    bool Safe = Ann.subscriptSafe(IC);
    if (IC->args().size() == 1) {
      int32_t Idx = genScalarIndex(IC->args()[0], BaseP.R0, 0, 1);
      int32_t Dst = B.newF();
      B.emit(Safe ? Opcode::LoadEl : Opcode::LoadElChk, Dst, BaseP.R0, Idx);
      return Operand::f(Dst);
    }
    int32_t RIdx = genScalarIndex(IC->args()[0], BaseP.R0, 0, 2);
    int32_t CIdx = genScalarIndex(IC->args()[1], BaseP.R0, 1, 2);
    int32_t Dst = B.newF();
    B.emit(Safe ? Opcode::LoadEl2 : Opcode::LoadEl2Chk, Dst, BaseP.R0, RIdx,
           CIdx);
    return Operand::f(Dst);
  }

  // Generic indexing.
  if (IC->args().size() > 2)
    throw CannotCompile();
  std::vector<int32_t> Descriptors;
  unsigned NumDims = static_cast<unsigned>(IC->args().size());
  for (unsigned D = 0; D != NumDims; ++D) {
    const Expr *A = IC->args()[D];
    if (isa<ColonWildcardExpr>(A)) {
      Descriptors.push_back(-1);
      continue;
    }
    EndStack.push_back({BaseP.R0, D, NumDims});
    Operand V = toP(genExpr(A), typeOf(A));
    EndStack.pop_back();
    Descriptors.push_back(V.R0);
  }
  int32_t Dst = B.newP();
  B.emit(Opcode::LoadIdxG, Dst, BaseP.R0, B.pool(Descriptors),
         static_cast<int32_t>(Descriptors.size()));
  return Operand::p(Dst);
}

void CodeGen::genIndexedStore(const LValue &LV, Operand RHS,
                              const Type &RHSType, const Stmt *S) {
  assert(LV.VarSlot >= 0);
  const VarHome &H = Homes[LV.VarSlot];
  assert(H.K == Operand::Kind::P && "indexed targets are boxed");
  Type BaseT = slotType(LV.VarSlot);

  bool FastOK = !generic() && LV.Indices.size() >= 1 &&
                LV.Indices.size() <= 2 && realArrayType(BaseT) &&
                realScalarType(RHSType) && RHS.K != Operand::Kind::P &&
                RHS.K != Operand::Kind::CPair;
  if (FastOK) {
    for (const Expr *A : LV.Indices)
      FastOK &= !isa<ColonWildcardExpr>(A) && typeOf(A).isScalar() &&
                intrinsicLE(typeOf(A).intrinsic(), IntrinsicType::Real);
  }
  if (FastOK) {
    bool InBounds = Ann.writeFacts(S).InBounds;
    Operand ValF = toF(RHS);
    MClass Cls = storeClassOf(RHSType);
    if (LV.Indices.size() == 1) {
      int32_t Idx = genScalarIndex(LV.Indices[0], H.R0, 0, 1);
      Instr St = Instr::make(InBounds ? Opcode::StoreEl : Opcode::StoreElChk,
                             H.R0, Idx, ValF.R0);
      St.Imm.I = static_cast<int64_t>(Cls);
      B.emit(St);
      return;
    }
    int32_t RIdx = genScalarIndex(LV.Indices[0], H.R0, 0, 2);
    int32_t CIdx = genScalarIndex(LV.Indices[1], H.R0, 1, 2);
    Instr St = Instr::make(InBounds ? Opcode::StoreEl2 : Opcode::StoreEl2Chk,
                           H.R0, RIdx, CIdx, ValF.R0);
    St.Imm.I = static_cast<int64_t>(Cls);
    B.emit(St);
    return;
  }

  // Generic indexed store.
  if (LV.Indices.size() > 2 || LV.Indices.empty())
    throw CannotCompile();
  std::vector<int32_t> Descriptors;
  unsigned NumDims = static_cast<unsigned>(LV.Indices.size());
  for (unsigned D = 0; D != NumDims; ++D) {
    const Expr *A = LV.Indices[D];
    if (isa<ColonWildcardExpr>(A)) {
      Descriptors.push_back(-1);
      continue;
    }
    EndStack.push_back({H.R0, D, NumDims});
    Operand V = toP(genExpr(A), typeOf(A));
    EndStack.pop_back();
    Descriptors.push_back(V.R0);
  }
  Operand RHSP = toP(RHS, RHSType);
  B.emit(Opcode::StoreIdxG, H.R0, RHSP.R0, B.pool(Descriptors),
         static_cast<int32_t>(Descriptors.size()));
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

std::vector<Operand> CodeGen::genCall(const IndexOrCallExpr *IC,
                                      size_t NumOuts, bool Statement) {
  if (IC->base()->symKind() == SymKind::Builtin)
    return genBuiltinCall(IC, NumOuts, Statement);

  // User function call through the resolver (and the repository). A
  // self-call that inference gave the function's own result type may
  // become a CallSelf: its operands are all selected before any is boxed.
  const bool SelfCall = TypedSelf && NumOuts == 1 && !Statement &&
                        IC->base()->name() == FI.F->name() &&
                        typeOf(IC) == Ann.SelfResult;
  std::vector<Operand> Args;
  std::vector<int32_t> ArgRegs;
  for (const Expr *A : IC->args()) {
    if (isa<ColonWildcardExpr>(A) || isa<EndRefExpr>(A))
      throw CannotCompile();
    Operand V = genExpr(A);
    if (SelfCall)
      Args.push_back(V);
    else
      ArgRegs.push_back(toP(V, typeOf(A)).R0);
  }
  if (SelfCall) {
    if (std::optional<Operand> R = genSelfCall(IC, Args))
      return {*R};
    for (size_t K = 0; K != Args.size(); ++K)
      ArgRegs.push_back(toP(Args[K], typeOf(IC->args()[K])).R0);
  }
  return emitCall(Opcode::CallU, IC->base()->name(), ArgRegs, NumOuts,
                  Statement);
}

/// Emits CallSelf when every argument already sits in a register of its
/// parameter's class and is not logical, so that boxing it as CallSelf
/// does (BoxF/BoxI) gives the callee the value and class CallU's boxing
/// would. Otherwise the call stays a CallU.
std::optional<Operand> CodeGen::genSelfCall(const IndexOrCallExpr *IC,
                                            const std::vector<Operand> &Args) {
  const Function &F = *FI.F;
  if (Args.size() != IR->NumParams)
    return std::nullopt;
  int32_t Regs[selfcall::kMaxArgs] = {-1, -1, -1};
  unsigned IntMask = 0;
  for (size_t K = 0; K != Args.size(); ++K) {
    if (Args[K].K != Homes[F.paramSlots()[K]].K ||
        typeOf(IC->args()[K]).intrinsic() == IntrinsicType::Bool)
      return std::nullopt;
    Regs[K] = Args[K].R0;
    IntMask |= unsigned(Args[K].K == Operand::Kind::I) << K;
  }
  int32_t Dst = B.newI();
  Instr In = Instr::make(Opcode::CallSelf, Dst, Regs[0], Regs[1], Regs[2]);
  In.Imm.I = selfcall::encode(static_cast<unsigned>(Args.size()), IntMask);
  B.emit(In);
  return Operand::i(Dst);
}

/// Emits a CallU/CallB of \p Name on boxed arguments, with one fresh P
/// register per output.
std::vector<Operand> CodeGen::emitCall(Opcode Op, const std::string &Name,
                                       const std::vector<int32_t> &ArgRegs,
                                       size_t NumOuts, bool Statement) {
  std::vector<int32_t> DstRegs;
  std::vector<Operand> Outs;
  for (size_t K = 0; K != NumOuts; ++K) {
    DstRegs.push_back(B.newP());
    Outs.push_back(Operand::p(DstRegs.back()));
  }
  Instr In = Instr::make(Op, B.pool(DstRegs),
                         static_cast<int32_t>(DstRegs.size()), B.pool(ArgRegs),
                         static_cast<int32_t>(ArgRegs.size()));
  In.Imm.I = IR->internName(Name) | (Statement ? kStatementCallFlag : 0);
  B.emit(In);
  return Outs;
}

/// A scalar rand in a value position: one draw of the context's generator
/// into an F register, the real scalar the builtin would box.
Operand CodeGen::genRand() {
  int32_t Dst = B.newF();
  B.emit(Opcode::FRand, Dst);
  return Operand::f(Dst);
}

std::vector<Operand> CodeGen::genBuiltinCall(const IndexOrCallExpr *IC,
                                             size_t NumOuts, bool Statement) {
  const std::string &Name = IC->base()->name();
  const BuiltinDef *Def = BuiltinTable::instance().lookup(Name);
  if (!Def)
    throw CannotCompile();

  if (Name == "rand" && IC->args().empty() && NumOuts <= 1 && !Statement)
    return {genRand()};

  bool Fast = !generic();

  // Scalar math intrinsics, inlined when the domain is proven (sqrt of a
  // provably non-negative value and so on; Section 2.6.1 "elementary math
  // functions").
  if (Fast && Def->Intrinsic != ScalarIntrinsic::None && NumOuts <= 1 &&
      IC->args().size() == scalarIntrinsicArity(Def->Intrinsic)) {
    bool ArgsOK = true;
    for (const Expr *A : IC->args())
      ArgsOK &= realScalarType(typeOf(A));
    // The *result* annotation being real certifies the domain (the sqrt
    // rule only yields Real when the range analysis proved arg >= 0).
    Type ResT = typeOf(IC);
    bool DomainOK = !scalarIntrinsicNeedsGuard(Def->Intrinsic) ||
                    (realScalarType(ResT));
    if (ArgsOK && DomainOK && realScalarType(ResT)) {
      if (IC->args().size() == 1) {
        Operand A = toF(genExpr(IC->args()[0]));
        int32_t Dst = B.newF();
        B.emitImmI(Opcode::FIntr1, static_cast<int64_t>(Def->Intrinsic), Dst,
                   A.R0);
        return {Operand::f(Dst)};
      }
      Operand A = toF(genExpr(IC->args()[0]));
      Operand C = toF(genExpr(IC->args()[1]));
      int32_t Dst = B.newF();
      B.emitImmI(Opcode::FIntr2, static_cast<int64_t>(Def->Intrinsic), Dst,
                 A.R0, C.R0);
      return {Operand::f(Dst)};
    }
  }

  // abs of a complex scalar held as a (re, im) register pair is
  // hypot(re, im), exactly what the builtin computes for a complex value. A
  // boxed operand keeps the call even when typed complex: at run time it may
  // hold a real, for which the builtin takes fabs (the two differ in the
  // sign of a NaN).
  if (Fast && Def->Intrinsic == ScalarIntrinsic::Abs && NumOuts <= 1 &&
      IC->args().size() == 1 && cplxScalarType(typeOf(IC->args()[0]))) {
    Operand Z = genExpr(IC->args()[0]);
    if (Z.K == Operand::Kind::CPair) {
      int32_t Dst = B.newF();
      B.emitImmI(Opcode::FIntr2, static_cast<int64_t>(ScalarIntrinsic::Hypot),
                 Dst, Z.R0, Z.R1);
      return {Operand::f(Dst)};
    }
    return emitCall(Opcode::CallB, Name, {toP(Z, typeOf(IC->args()[0])).R0},
                    NumOuts, Statement);
  }

  // Preallocated arrays: zeros/ones with scalar arguments (Section 2.6.1
  // "small temporary arrays of known sizes are pre-allocated" generalizes
  // to direct allocation without boxing the dimensions).
  if (Fast && (Name == "zeros" || Name == "ones") && NumOuts <= 1 &&
      IC->args().size() >= 1 && IC->args().size() <= 2) {
    bool ArgsOK = true;
    for (const Expr *A : IC->args())
      ArgsOK &= realScalarType(typeOf(A));
    if (ArgsOK) {
      Operand R0 = toI(genExpr(IC->args()[0]));
      Operand C0 = IC->args().size() == 2 ? toI(genExpr(IC->args()[1])) : R0;
      int32_t Dst = B.newP();
      B.emitImmI(Opcode::NewMat,
                 static_cast<int64_t>(Name == "ones" ? MClass::Int
                                                     : MClass::Real),
                 Dst, R0.R0, C0.R0);
      if (Name == "ones")
        B.emitImmF(Opcode::FillF, 1.0, Dst);
      return {Operand::p(Dst)};
    }
  }

  // Shape queries on boxed values become Len instructions.
  if (Fast && (Name == "numel" || Name == "size") && IC->args().size() >= 1) {
    Operand A = toP(genExpr(IC->args()[0]), typeOf(IC->args()[0]));
    if (Name == "numel" && NumOuts <= 1) {
      int32_t Dst = B.newI();
      B.emit(Opcode::LenNumel, Dst, A.R0);
      return {Operand::i(Dst)};
    }
    if (Name == "size" && IC->args().size() == 2 && NumOuts <= 1) {
      if (auto Dim = typeOf(IC->args()[1]).constantValue()) {
        int32_t Dst = B.newI();
        B.emit(*Dim == 1 ? Opcode::LenRows : Opcode::LenCols, Dst, A.R0);
        return {Operand::i(Dst)};
      }
    }
    if (Name == "size" && IC->args().size() == 1 && NumOuts == 2) {
      int32_t R = B.newI(), C = B.newI();
      B.emit(Opcode::LenRows, R, A.R0);
      B.emit(Opcode::LenCols, C, A.R0);
      return {Operand::i(R), Operand::i(C)};
    }
    // Fall through to the generic call with the boxed argument reused.
    std::vector<int32_t> ArgRegs{A.R0};
    for (size_t K = 1; K != IC->args().size(); ++K)
      ArgRegs.push_back(toP(genExpr(IC->args()[K]),
                            typeOf(IC->args()[K])).R0);
    return emitCall(Opcode::CallB, Name, ArgRegs, NumOuts, Statement);
  }

  // Elementwise fusion: an intrinsic map over a fusable array chain
  // (exp(-x.^2) and friends) becomes part of one EwFuse loop.
  if (Fast && NumOuts == 1 && !Statement)
    if (auto Fused = tryFuseElementwise(IC))
      return {*Fused};

  // Generic builtin call.
  std::vector<int32_t> ArgRegs;
  for (const Expr *A : IC->args()) {
    if (isa<ColonWildcardExpr>(A) || isa<EndRefExpr>(A))
      throw CannotCompile();
    ArgRegs.push_back(toP(genExpr(A), typeOf(A)).R0);
  }
  return emitCall(Opcode::CallB, Name, ArgRegs, NumOuts, Statement);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::unique_ptr<IRFunction> CodeGen::run() {
  if (FI.HasAmbiguousSymbols)
    return nullptr;
  IR->Name = FI.F->name();
  EpilogueLabel = B.newLabel();
  try {
    assignHomes();
    genPrologue();
    genBlock(FI.F->body());
    genEpilogue();
    B.finish();
  } catch (const CannotCompile &) {
    return nullptr;
  }
  return std::move(IR);
}

} // namespace

std::unique_ptr<IRFunction> majic::generateCode(const FunctionInfo &FI,
                                                const TypeAnnotations &Ann,
                                                const TypeSignature &Sig,
                                                const CodeGenOptions &Opts) {
  return CodeGen(FI, Ann, Sig, Opts).run();
}
