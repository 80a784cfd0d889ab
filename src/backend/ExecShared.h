//===- backend/ExecShared.h - Helpers shared by the VM and native tier -*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every operation the register VM (backend/VM.cpp) and the native tier's
/// host callbacks (native/NativeRuntime.cpp) perform on boxed values, in
/// one copy. A VM opcode case only reads its registers and writes the
/// result back; a native callback only unboxes its `MxPub *` operands and
/// boxes the result. The semantics and every error text live here:
///
///   - register checks: requireValue, requireRealData, realScalar,
///     integerScalar, complexScalar, checkDefined;
///   - element access: loadChecked/loadChecked2 (LoadElChk, LoadEl2Chk),
///     store/store2 (StoreEl, StoreEl2), storeGrow/storeGrow2 (StoreElChk,
///     StoreEl2Chk), with promoteClass and storeDirect beneath them;
///   - allocation: zeros (NewMat), fill (FillF), and ewSimulate, the shape
///     and class pass of a fused elementwise program (EwFuse);
///   - whole values: indexLoad/indexAssign (LoadIdxG, StoreIdxG), concat
///     (HorzCat, VertCat), gemv, axpy, matMulT, dotT, display;
///   - calls: callBuiltin (CallB), callArgs/callResults (CallU),
///     takeOutputs (Ret) and CallLevel, the depth of a direct self-call
///     (CallSelf);
///   - checkIntrinsicGuard, the domain guards of optimistic math.
///
/// The functions are inline, so the VM's dispatch loop compiles them in
/// place. One copy is what makes "native output == VM output", error text
/// included, a structural property instead of a test-enforced hope.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_BACKEND_EXECSHARED_H
#define MAJIC_BACKEND_EXECSHARED_H

#include "backend/VM.h"
#include "ir/Instr.h"
#include "runtime/Blas.h"
#include "runtime/Builtins.h"
#include "runtime/Context.h"
#include "runtime/Ops.h"
#include "runtime/Value.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>
#include <vector>

namespace majic {
namespace exec {

/// Promotes the array's class tag when storing an element of class \p C.
inline void promoteClass(Value &V, MClass C) {
  if (V.mclass() == MClass::String)
    throw MatlabError("cannot index-assign into a string");
  if (static_cast<int>(C) > static_cast<int>(V.mclass()) &&
      C != MClass::Complex)
    V.setClass(C);
}

/// Direct element store with complex-imaginary clearing.
inline void storeDirect(Value &V, size_t Idx, double X) {
  V.reRef(Idx) = X;
  if (V.isComplex())
    V.imRef(Idx) = 0.0;
}

/// Domain guards for optimistically typed math intrinsics (Section 2.4's
/// guarded-intrinsic story): violation triggers deoptimization.
inline void checkIntrinsicGuard(ScalarIntrinsic Intr, double X) {
  switch (Intr) {
  case ScalarIntrinsic::Sqrt:
  case ScalarIntrinsic::Log:
  case ScalarIntrinsic::Log2:
  case ScalarIntrinsic::Log10:
    if (X < 0)
      throw DeoptError{Intr, X};
    return;
  case ScalarIntrinsic::Asin:
  case ScalarIntrinsic::Acos:
    if (X < -1 || X > 1)
      throw DeoptError{Intr, X};
    return;
  default:
    return;
  }
}

/// The value a register holds; a null register is an internal error.
inline const Value &requireValue(const Value *P) {
  if (!P)
    throw MatlabError("internal: use of an empty value register");
  return *P;
}
inline Value &requireValue(const ValuePtr &P) {
  requireValue(P.get());
  return *P;
}

/// Real-extraction guard: codegen routes a value through F registers only
/// when inference typed it real, and under optimistic real-math that typing
/// is a speculation (sqrt/log/... assumed to stay in domain). A complex
/// value reaching an F extraction means the speculation failed - reading
/// just the real part would silently drop the imaginary half - so
/// deoptimize and let the replay produce the general complex result.
/// Pessimistic code never selects an F path for a possibly-complex value,
/// so this cannot fire twice.
inline const Value &requireRealData(const Value &V) {
  if (V.isComplex())
    throw DeoptError{ScalarIntrinsic::None, 0.0};
  return V;
}

/// UnboxF: the real scalar of \p V.
inline double realScalar(const Value &V) {
  return requireRealData(V).scalarValue();
}

/// UnboxI: the integer scalar of \p V (within 1e-8 of an integer).
inline int64_t integerScalar(const Value &V) {
  double X = realScalar(V);
  double R = std::round(X);
  if (std::abs(X - R) > 1e-8)
    throw MatlabError(format("expected an integer value, got %g", X));
  return static_cast<int64_t>(R);
}

/// UnboxReIm: the real and imaginary parts of a scalar.
inline void complexScalar(const ValuePtr &P, double &Re, double &Im) {
  const Value &V = requireValue(P);
  if (!V.isScalar())
    throw MatlabError("expected a scalar value");
  Re = V.re(0);
  Im = V.im(0);
}

/// CheckDef: a read of variable \p Name, which must have been assigned.
inline void checkDefined(const ValuePtr &P, const char *Name) {
  if (!P)
    throw MatlabError(format("undefined function or variable '%s'", Name));
}

//===----------------------------------------------------------------------===//
// Element access and allocation
//===----------------------------------------------------------------------===//

/// LoadElChk: element \p Idx (0-based) of a real array, with the
/// interpreter's out-of-range text.
inline double loadChecked(const ValuePtr &P, int64_t Idx) {
  const Value &V = requireRealData(requireValue(P));
  if (Idx < 0 || static_cast<size_t>(Idx) >= V.numel())
    rt::throwBadRead(Idx + 1, V.numel());
  return V.re(static_cast<size_t>(Idx));
}

/// LoadEl2Chk: element (\p R, \p C), 0-based.
inline double loadChecked2(const ValuePtr &P, int64_t R, int64_t C) {
  const Value &V = requireRealData(requireValue(P));
  if (R < 0 || C < 0 || static_cast<size_t>(R) >= V.rows() ||
      static_cast<size_t>(C) >= V.cols())
    rt::throwBadRead(R + 1, C + 1, V.rows(), V.cols());
  return V.at(static_cast<size_t>(R), static_cast<size_t>(C));
}

/// StoreEl: stores \p X of class \p C at linear index \p Idx, known to be
/// in range (copy-on-write, class promotion, imaginary part cleared).
inline void store(ValuePtr &P, size_t Idx, double X, MClass C) {
  requireValue(P);
  Value &V = makeUnique(P);
  promoteClass(V, C);
  storeDirect(V, Idx, X);
}

/// StoreEl2: the same at (\p R, \p C).
inline void store2(ValuePtr &P, size_t R, size_t C, double X, MClass K) {
  requireValue(P);
  Value &V = makeUnique(P);
  promoteClass(V, K);
  storeDirect(V, C * V.rows() + R, X);
}

/// The array a growing store writes: a null register starts empty, and a
/// negative subscript is rejected.
inline Value &growTarget(ValuePtr &P, bool Negative) {
  if (!P)
    P = makeValue(Value());
  Value &V = makeUnique(P);
  if (Negative)
    throw MatlabError("subscript indices must be positive integers");
  return V;
}

/// The scalar a growing store assigns through the runtime.
inline Value classedScalar(double X, MClass C) {
  Value S = Value::scalar(X);
  S.setClass(C);
  return S;
}

/// StoreElChk: a store at linear index \p Idx that grows the array (with
/// the runtime's oversizing) when \p Idx is past its end.
inline void storeGrow(ValuePtr &P, int64_t Idx, double X, MClass C) {
  Value &V = growTarget(P, Idx < 0);
  if (static_cast<size_t>(Idx) < V.numel()) {
    promoteClass(V, C);
    storeDirect(V, static_cast<size_t>(Idx), X);
  } else {
    rt::indexAssign1(V, rt::Indexer::single(static_cast<size_t>(Idx)),
                     classedScalar(X, C));
  }
}

/// StoreEl2Chk: the same at (\p R, \p C).
inline void storeGrow2(ValuePtr &P, int64_t R, int64_t C, double X,
                       MClass K) {
  Value &V = growTarget(P, R < 0 || C < 0);
  if (static_cast<size_t>(R) < V.rows() && static_cast<size_t>(C) < V.cols()) {
    promoteClass(V, K);
    storeDirect(V, static_cast<size_t>(C) * V.rows() + static_cast<size_t>(R),
                X);
  } else {
    rt::indexAssign2(V, rt::Indexer::single(static_cast<size_t>(R)),
                     rt::Indexer::single(static_cast<size_t>(C)),
                     classedScalar(X, K));
  }
}

/// NewMat: an \p R x \p C array of zeros of class \p K; a negative extent
/// counts as 0.
inline ValuePtr zeros(int64_t R, int64_t C, MClass K) {
  return makeValue(Value::zeros(static_cast<size_t>(std::max<int64_t>(R, 0)),
                                static_cast<size_t>(std::max<int64_t>(C, 0)),
                                K));
}

/// FillF: sets every element of the array to \p X.
inline void fill(ValuePtr &P, double X) {
  requireValue(P);
  Value &V = makeUnique(P);
  std::fill(V.reData(), V.reData() + V.numel(), X);
}

//===----------------------------------------------------------------------===//
// Whole-value operations
//
// An operation on a list of registers takes the list as a count and an
// accessor: At(K) gives the register of entry K, and is called once per
// entry, in order (a native callback reads its variadic arguments there).
//===----------------------------------------------------------------------===//

/// The indexers of a one- or two-subscript index into \p Base. Sub(K) is
/// a pointer to subscript K's register, or null for a colon.
template <typename SubAt>
std::vector<rt::Indexer> indexers(const Value &Base, int N, SubAt Sub) {
  if (N < 1 || N > 2)
    throw MatlabError("internal: bad index arity");
  std::vector<rt::Indexer> Idx;
  Idx.reserve(static_cast<size_t>(N));
  for (int K = 0; K != N; ++K) {
    size_t DimLen =
        N == 1 ? Base.numel() : (K == 0 ? Base.rows() : Base.cols());
    const ValuePtr *S = Sub(K);
    Idx.push_back(S ? rt::Indexer::fromValue(requireValue(*S), DimLen)
                    : rt::Indexer::colon());
  }
  return Idx;
}

/// LoadIdxG: \p Base indexed by \p N general subscripts.
template <typename SubAt>
ValuePtr indexLoad(const ValuePtr &BaseP, int N, SubAt Sub) {
  const Value &Base = requireValue(BaseP);
  std::vector<rt::Indexer> Idx = indexers(Base, N, Sub);
  return makeValue(N == 1 ? rt::index1(Base, Idx[0])
                          : rt::index2(Base, Idx[0], Idx[1]));
}

/// StoreIdxG: assigns \p Rhs through \p N general subscripts; a null base
/// register starts empty.
template <typename SubAt>
void indexAssign(ValuePtr &BaseP, const ValuePtr &Rhs, int N, SubAt Sub) {
  if (!BaseP)
    BaseP = makeValue(Value());
  Value &Base = makeUnique(BaseP);
  std::vector<rt::Indexer> Idx = indexers(Base, N, Sub);
  if (N == 1)
    rt::indexAssign1(Base, Idx[0], requireValue(Rhs));
  else
    rt::indexAssign2(Base, Idx[0], Idx[1], requireValue(Rhs));
}

/// HorzCat (\p Horz) and VertCat over \p N parts.
template <typename PartAt>
ValuePtr concat(bool Horz, int N, PartAt Part) {
  std::vector<const Value *> Parts;
  Parts.reserve(static_cast<size_t>(N));
  for (int K = 0; K != N; ++K)
    Parts.push_back(&requireValue(Part(K)));
  return makeValue(Horz ? rt::horzcat(Parts) : rt::vertcat(Parts));
}

/// Gemv: A * x, through dgemv when x is a real column of matching length.
inline ValuePtr gemv(const ValuePtr &AP, const ValuePtr &XP) {
  const Value &A = requireValue(AP);
  const Value &X = requireValue(XP);
  if (A.isComplex() || X.isComplex() || !X.isColVector() ||
      A.cols() != X.rows())
    return makeValue(rt::binary(rt::BinOp::MatMul, A, X));
  Value Y = Value::zeros(A.rows(), 1);
  blas::dgemv(A.rows(), A.cols(), 1.0, A.reData(), X.reData(), 0.0,
              Y.reData());
  return makeValue(std::move(Y));
}

/// MatMulT: X' * Y (Op is ' or .') without the transposed copy.
inline ValuePtr matMulT(int64_t Op, const ValuePtr &XP, const ValuePtr &YP) {
  return makeValue(rt::matMulTransA(static_cast<rt::UnOp>(Op),
                                    requireValue(XP), requireValue(YP)));
}

/// DotT: the scalar X' * Y of two real column vectors, as UnboxF would
/// read the boxed product (same value, same error when it is not scalar).
inline double dotT(int64_t Op, const ValuePtr &XP, const ValuePtr &YP) {
  return realScalar(rt::matMulTransA(static_cast<rt::UnOp>(Op),
                                     requireValue(XP), requireValue(YP)));
}

/// Axpy: a * x + y. The real same-shape case is one pass writing a fresh
/// array (daxpyz rounds the multiply and the add separately, exactly like
/// the interpreter's two-op form).
inline ValuePtr axpy(double A, const ValuePtr &XP, const ValuePtr &YP) {
  const Value &X = requireValue(XP);
  const Value &Y = requireValue(YP);
  if (X.isComplex() || Y.isComplex() || X.rows() != Y.rows() ||
      X.cols() != Y.cols())
    return makeValue(rt::binary(
        rt::BinOp::Add, rt::binary(rt::BinOp::MatMul, Value::scalar(A), X),
        Y));
  Value Out = Value::zeros(X.rows(), X.cols());
  blas::daxpyz(X.numel(), A, X.reData(), Y.reData(), Out.reData());
  return makeValue(std::move(Out));
}

/// Display: prints variable \p Name's value. A null register is an absent
/// optional output: nothing to display.
inline void display(Context &Ctx, const ValuePtr &P, const std::string &Name) {
  if (P)
    Ctx.print(rt::displayValue(*P, Name));
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

/// An argument register, which codegen never leaves null.
inline const Value &argValue(const ValuePtr &P) {
  if (!P)
    throw MatlabError("internal: null argument value");
  return *P;
}

/// Hands a call's results to its \p NOuts destinations through Out(K, V).
/// A statement call may return fewer (its optional outputs are absent, a
/// null register); an expression call that does calls \p Short, which
/// throws.
template <typename R, typename OutTo, typename ShortFn>
void deliver(std::vector<R> &Rs, bool Statement, int NOuts, OutTo Out,
             ShortFn Short) {
  for (int K = 0; K != NOuts; ++K) {
    if (static_cast<size_t>(K) < Rs.size()) {
      if constexpr (std::is_same_v<R, Value>)
        Out(K, makeValue(std::move(Rs[K])));
      else
        Out(K, std::move(Rs[K]));
    } else if (Statement) {
      Out(K, ValuePtr());
    } else {
      Short();
    }
  }
}

/// CallB: builtin \p Def (null when \p Name does not resolve) on \p NArgs
/// arguments. The registers keep the arguments alive for the call: only
/// their pointers are passed.
template <typename ArgAt, typename OutTo>
void callBuiltin(const BuiltinDef *Def, const char *Name, Context &Ctx,
                 bool Statement, int NArgs, ArgAt Arg, int NOuts, OutTo Out) {
  if (!Def)
    throw MatlabError(format("unknown builtin '%s'", Name));
  std::vector<const Value *> Ptrs;
  Ptrs.reserve(static_cast<size_t>(NArgs));
  for (int K = 0; K != NArgs; ++K)
    Ptrs.push_back(&argValue(Arg(K)));
  std::vector<Value> Rs = BuiltinTable::call(
      *Def, Ctx, Ptrs, Statement ? 0 : static_cast<size_t>(NOuts));
  deliver(Rs, Statement, NOuts, Out, [Def] {
    throw MatlabError(
        format("builtin '%s' returned too few values", Def->Name.c_str()));
  });
}

/// The arguments of a user-function call (CallU).
template <typename ArgAt> std::vector<ValuePtr> callArgs(int NArgs, ArgAt Arg) {
  std::vector<ValuePtr> Args;
  Args.reserve(static_cast<size_t>(NArgs));
  for (int K = 0; K != NArgs; ++K) {
    auto &&A = Arg(K);
    argValue(A);
    Args.push_back(std::forward<decltype(A)>(A));
  }
  return Args;
}

/// The results of a user-function call, handed out as deliver does.
template <typename OutTo>
void callResults(std::vector<ValuePtr> &Rs, bool Statement, int NOuts,
                 OutTo Out) {
  deliver(Rs, Statement, NOuts, Out,
          [] { throw MatlabError("not enough output arguments"); });
}

/// The call depth around direct self-calls, which skip the resolver but
/// count against the depth it checks and raises (CallResolver::callDepth).
/// enter() checks and raises it for one direct call, failing at the level
/// a call through the resolver would, with the same text; the scope puts
/// the depth back as it found it on return and on unwind. The VM's
/// CallSelf enters one level per scope. A native run holds one scope
/// around its machine code, whose mlfDirectEnter makes enter()'s check
/// inline in C and whose unwinding skips mlfDirectLeave.
class CallLevel {
public:
  explicit CallLevel(unsigned &Depth) : Depth(Depth), Entry(Depth) {}
  ~CallLevel() { Depth = Entry; }
  CallLevel(const CallLevel &) = delete;
  CallLevel &operator=(const CallLevel &) = delete;

  void enter(unsigned MaxDepth) {
    if (Depth >= MaxDepth)
      throw MatlabError(kMaxRecursionMessage);
    ++Depth;
  }

private:
  unsigned &Depth;
  const unsigned Entry;
};

/// Ret: the \p NumOuts outputs a caller asked for out of the function's
/// \p Outs (one per declared output, null where unassigned), with the
/// interpreter's rules and error texts. At nargout 0 the first output is
/// returned when it is assigned.
inline std::vector<ValuePtr> takeOutputs(std::vector<ValuePtr> &Outs,
                                         size_t NumOuts,
                                         const std::string &Fn,
                                         const std::vector<std::string> &Names) {
  if (NumOuts == 0) {
    if (!Outs.empty() && Outs[0])
      return {std::move(Outs[0])};
    return {};
  }
  std::vector<ValuePtr> Taken;
  Taken.reserve(NumOuts);
  for (size_t K = 0; K != NumOuts; ++K) {
    if (K >= Outs.size())
      throw MatlabError(
          format("too many output arguments from '%s'", Fn.c_str()));
    if (!Outs[K])
      throw MatlabError(format(
          "output argument '%s' of '%s' not assigned",
          K < Names.size() ? Names[K].c_str() : std::to_string(K + 1).c_str(),
          Fn.c_str()));
    Taken.push_back(std::move(Outs[K]));
  }
  return Taken;
}

/// The resolved output of a fused elementwise program: shape + class of
/// the Value the executor must allocate.
struct EwPlan {
  size_t Rows = 0;
  size_t Cols = 0;
  MClass Class = MClass::Real;
};

/// Pass 1 of EwFuse execution - the shape/class simulation, mirroring the
/// interpreter's unfused chain: scalars (1x1) broadcast, equal shapes
/// pass, anything else throws the interpreter's exact dimension error at
/// the same operator. Classes follow arithResultClass: int-preserving ops
/// keep int-like (Int/Bool) operands Int; division, power, and math
/// builtins give Real. Operands that are null, complex, or string raise
/// the same errors/deopts the VM's operand gather would, so the native
/// tier's allocation shim and the VM share one failure surface.
inline EwPlan ewSimulate(const Value *const *Ops, int32_t NumOps,
                         const int32_t *Prog, size_t ProgLen) {
  for (int32_t K = 0; K != NumOps; ++K) {
    const Value &V = requireValue(Ops[K]);
    if (V.isComplex() || V.mclass() == MClass::String)
      throw DeoptError{ScalarIntrinsic::None, 0.0};
  }

  struct SimSlot {
    size_t R, C;
    bool Scalar, IntLike;
  };
  SimSlot Sim[ew::kMaxEwStack];
  int SP = 0;
  for (size_t K = 0; K != ProgLen; ++K) {
    int32_t Arg = ew::argOf(Prog[K]);
    switch (ew::opOf(Prog[K])) {
    case ew::EwOp::Push: {
      const Value &V = *Ops[Arg];
      MClass MC = V.mclass();
      Sim[SP++] = {V.rows(), V.cols(), V.isScalar(),
                   MC == MClass::Int || MC == MClass::Bool};
      break;
    }
    case ew::EwOp::Bin: {
      auto Op = static_cast<rt::BinOp>(Arg);
      SimSlot &L = Sim[SP - 2], &R = Sim[SP - 1];
      --SP;
      // MatMul (*) and MatRDiv (/) were fused because one side was typed
      // scalar; if the runtime value disagrees, the op is a real matrix
      // product/solve - deoptimize so the interpreter's general path
      // (and its distinct error messages) takes over.
      if ((Op == rt::BinOp::MatMul && !L.Scalar && !R.Scalar) ||
          (Op == rt::BinOp::MatRDiv && !R.Scalar))
        throw DeoptError{ScalarIntrinsic::None, 0.0};
      size_t RR, RC;
      if (L.Scalar) {
        RR = R.R;
        RC = R.C;
      } else if (R.Scalar) {
        RR = L.R;
        RC = L.C;
      } else if (L.R == R.R && L.C == R.C) {
        RR = L.R;
        RC = L.C;
      } else {
        throw MatlabError(format(
            "matrix dimensions must agree for operator '%s' (%zux%zu vs "
            "%zux%zu)",
            rt::binOpName(Op), L.R, L.C, R.R, R.C));
      }
      bool Preserving = Op == rt::BinOp::Add || Op == rt::BinOp::Sub ||
                        Op == rt::BinOp::ElemMul || Op == rt::BinOp::MatMul;
      L = {RR, RC, RR == 1 && RC == 1,
           Preserving && L.IntLike && R.IntLike};
      break;
    }
    case ew::EwOp::Neg:
      // Negation preserves shape; Bool negates to Int, both int-like.
      break;
    case ew::EwOp::Intr:
      Sim[SP - 1].IntLike = false; // math builtins produce Real arrays
      break;
    }
  }

  return {Sim[0].R, Sim[0].C, Sim[0].IntLike ? MClass::Int : MClass::Real};
}

} // namespace exec
} // namespace majic

#endif // MAJIC_BACKEND_EXECSHARED_H
