//===- backend/ExecShared.h - Helpers shared by the VM and native tier -*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution helpers shared between the register VM (backend/VM.cpp) and
/// the native tier's runtime shims (native/NativeRuntime.cpp). Both tiers
/// must agree bit-for-bit on semantics - element stores promote array
/// classes the same way, guarded intrinsics deoptimize on the same domain
/// violations, and a fused elementwise program resolves its result shape
/// and class (and raises the identical dimension errors) through one
/// simulation. Keeping one copy here is what makes "native output ==
/// VM output" a structural property instead of a test-enforced hope.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_BACKEND_EXECSHARED_H
#define MAJIC_BACKEND_EXECSHARED_H

#include "backend/VM.h"
#include "ir/Instr.h"
#include "runtime/Builtins.h"
#include "runtime/Ops.h"
#include "runtime/Value.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <cmath>
#include <string>
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

inline Value &requireValue(const ValuePtr &P) {
  if (!P)
    throw MatlabError("internal: use of an empty value register");
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
    if (!Ops[K])
      throw MatlabError("internal: use of an empty value register");
    const Value &V = *Ops[K];
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
