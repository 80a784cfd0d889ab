//===- native/NativeRuntime.cpp - Host side of the native tier -------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Boxes, the callback table, the setjmp/longjmp error trampoline, and the
// C prelude. Every callback body mirrors the corresponding VM.cpp opcode
// case verbatim (through the helpers both share in backend/ExecShared.h),
// so the two tiers produce bit-identical values and byte-identical error
// messages.
//
// Shim discipline: a callback does all C++ work inside a try block
// (delegating anything nontrivial to a host* helper so the C++ unwinder
// cleans up its locals), parks the exception in the frame, and only then
// longjmps - at that point the shim's own frame holds no live object with
// a destructor, so the jump crosses plain-C frames only, which C++
// explicitly permits.
//
//===----------------------------------------------------------------------===//

#include "native/NativeRuntime.h"

#include "backend/ExecShared.h"
#include "obs/Trace.h"
#include "runtime/Blas.h"
#include "runtime/Builtins.h"
#include "runtime/CallResolver.h"
#include "runtime/Context.h"
#include "runtime/Ops.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <cmath>
#include <csetjmp>
#include <cstdarg>
#include <deque>

using namespace majic;
using namespace majic::native;
using rt::Indexer;

// The prelude bakes these numeric values into generated C (mlfPlus -> 0,
// klass 3 = complex, ...); a drifted enum must fail the build, not
// corrupt arithmetic.
static_assert(static_cast<int>(rt::BinOp::Add) == 0 &&
                  static_cast<int>(rt::BinOp::Or) == 17,
              "rt::BinOp layout is baked into the native prelude");
static_assert(static_cast<int>(MClass::Bool) == 0 &&
                  static_cast<int>(MClass::Int) == 1 &&
                  static_cast<int>(MClass::Real) == 2 &&
                  static_cast<int>(MClass::Complex) == 3 &&
                  static_cast<int>(MClass::String) == 4,
              "MClass layout is baked into the native prelude");

namespace {

/// A boxed value: the C-visible prefix plus the owning reference. Boxes
/// live in the frame's deque, so their addresses stay stable for the
/// whole native call however many the program allocates.
struct Box {
  MxPub Pub;
  ValuePtr V;
};

struct NativeFrame {
  std::jmp_buf Jb;
  std::exception_ptr Err;
  std::deque<Box> Boxes;
  Context *Ctx = nullptr;
  NativeHost *Host = nullptr;
  NativeFrame *Prev = nullptr;
  MxCallState Calls = {};

  MxPub *box(ValuePtr P);
};

/// The active frame of this thread; a chain through Prev supports native
/// -> engine -> native reentrancy.
thread_local NativeFrame *CurFrame = nullptr;

struct FrameGuard {
  explicit FrameGuard(NativeFrame *F) {
    F->Prev = CurFrame;
    CurFrame = F;
  }
  ~FrameGuard() { CurFrame = CurFrame->Prev; }
};

Box *boxOf(MxPub *P) { return reinterpret_cast<Box *>(P); }
MxPub *pubOf(Box *B) { return &B->Pub; }

/// Recomputes a box's public prefix from its Value. The write-cache class
/// is valid only while this box holds the sole reference (no copy-on-
/// write needed) and the class is at most Real (no imaginary half to
/// clear, no string guard) - exactly the preconditions under which the
/// VM's StoreEl sequence (makeUnique + promoteClass + storeDirect)
/// degenerates to one array store.
void refresh(Box *B) {
  Value &V = *B->V;
  B->Pub.Re = V.reData();
  B->Pub.Rows = static_cast<long long>(V.rows());
  B->Pub.Cols = static_cast<long long>(V.cols());
  B->Pub.Numel = static_cast<long long>(V.numel());
  int K = static_cast<int>(V.mclass());
  B->Pub.Klass = K;
  B->Pub.WClass =
      (B->V.use_count() == 1 && K <= static_cast<int>(MClass::Real)) ? K : -1;
}

MxPub *NativeFrame::box(ValuePtr P) {
  if (!P)
    return nullptr; // null registers stay null pointers, as in the VM
  Boxes.emplace_back();
  Calls.Boxes = static_cast<long long>(Boxes.size());
  Box &B = Boxes.back();
  B.V = std::move(P);
  refresh(&B);
  return pubOf(&B);
}

/// The requireValue twin for ABI pointers.
Value &val(MxPub *P) {
  if (!P)
    throw MatlabError("internal: use of an empty value register");
  return *boxOf(P)->V;
}

//===----------------------------------------------------------------------===//
// Helpers for the variadic callbacks. These run under the shim's try
// block, so they may use C++ freely - exceptions unwind their frames
// normally before the shim longjmps.
//===----------------------------------------------------------------------===//

MxPub *hostCat(NativeFrame *Fr, int Horz, int N, va_list Ap) {
  std::vector<const Value *> Parts;
  Parts.reserve(static_cast<size_t>(N));
  for (int K = 0; K != N; ++K)
    Parts.push_back(&val(va_arg(Ap, MxPub *)));
  return Fr->box(
      makeValue(Horz ? rt::horzcat(Parts) : rt::vertcat(Parts)));
}

std::vector<Indexer> gatherIndexers(const Value &Base, int N, va_list Ap) {
  MxPub *Ents[2] = {nullptr, nullptr};
  if (N < 1 || N > 2)
    throw MatlabError("internal: bad native index arity");
  for (int K = 0; K != N; ++K)
    Ents[K] = va_arg(Ap, MxPub *);
  std::vector<Indexer> Idx;
  for (int K = 0; K != N; ++K) {
    size_t DimLen =
        N == 1 ? Base.numel() : (K == 0 ? Base.rows() : Base.cols());
    if (Ents[K] == kColonSentinel)
      Idx.push_back(Indexer::colon());
    else
      Idx.push_back(Indexer::fromValue(val(Ents[K]), DimLen));
  }
  return Idx;
}

MxPub *hostIndexLoad(NativeFrame *Fr, MxPub *BaseP, int N, va_list Ap) {
  const Value &Base = val(BaseP);
  std::vector<Indexer> Idx = gatherIndexers(Base, N, Ap);
  return Fr->box(makeValue(N == 1 ? rt::index1(Base, Idx[0])
                                  : rt::index2(Base, Idx[0], Idx[1])));
}

void hostIndexAssign(NativeFrame *Fr, MxPub **BasePP, MxPub *RhsP, int N,
                     va_list Ap) {
  if (!*BasePP)
    *BasePP = Fr->box(makeValue(Value()));
  Box *B = boxOf(*BasePP);
  Value &Base = makeUnique(B->V);
  std::vector<Indexer> Idx = gatherIndexers(Base, N, Ap);
  if (N == 1)
    rt::indexAssign1(Base, Idx[0], val(RhsP));
  else
    rt::indexAssign2(Base, Idx[0], Idx[1], val(RhsP));
  refresh(B);
}

MxPub *hostEwAlloc(NativeFrame *Fr, int NOps, va_list Ap) {
  std::vector<const Value *> Ops(static_cast<size_t>(NOps));
  for (int K = 0; K != NOps; ++K) {
    MxPub *P = va_arg(Ap, MxPub *);
    Ops[K] = P ? boxOf(P)->V.get() : nullptr;
  }
  int Len = va_arg(Ap, int);
  const int *Prog = va_arg(Ap, const int *);
  exec::EwPlan Plan =
      exec::ewSimulate(Ops.data(), NOps, Prog, static_cast<size_t>(Len));
  return Fr->box(makeValue(Value::uninit(Plan.Rows, Plan.Cols, Plan.Class)));
}

void hostCallBuiltin(NativeFrame *Fr, const char *Name, int Stmt, int NDsts,
                     va_list Ap) {
  std::vector<MxPub **> Dsts(static_cast<size_t>(NDsts));
  for (int K = 0; K != NDsts; ++K)
    Dsts[K] = va_arg(Ap, MxPub **);
  int NArgs = va_arg(Ap, int);
  std::vector<const Value *> Ptrs;
  Ptrs.reserve(static_cast<size_t>(NArgs));
  for (int K = 0; K != NArgs; ++K) {
    MxPub *P = va_arg(Ap, MxPub *);
    if (!P)
      throw MatlabError("internal: null argument value");
    Ptrs.push_back(boxOf(P)->V.get());
  }
  const BuiltinDef *Def = BuiltinTable::instance().lookup(Name);
  if (!Def)
    throw MatlabError(format("unknown builtin '%s'", Name));
  std::vector<Value> Rs = BuiltinTable::call(
      *Def, *Fr->Ctx, Ptrs, Stmt ? 0 : static_cast<size_t>(NDsts));
  for (int K = 0; K != NDsts; ++K) {
    if (static_cast<size_t>(K) >= Rs.size()) {
      if (Stmt) {
        *Dsts[K] = nullptr; // optional output absent
        continue;
      }
      throw MatlabError(
          format("builtin '%s' returned too few values", Def->Name.c_str()));
    }
    *Dsts[K] = Fr->box(makeValue(std::move(Rs[K])));
  }
}

/// Charges a call one op, like a direct self-call. Out of line: the budget
/// error's text would otherwise grow the frame of every call through the
/// host, which a recursion stacks once per level.
[[gnu::noinline]] void chargeCall(Context &Ctx) { Ctx.Exec.consume(1); }

void hostCallFunction(NativeFrame *Fr, const char *Name, int Stmt, int NDsts,
                      va_list Ap) {
  std::vector<MxPub **> Dsts(static_cast<size_t>(NDsts));
  for (int K = 0; K != NDsts; ++K)
    Dsts[K] = va_arg(Ap, MxPub **);
  int NArgs = va_arg(Ap, int);
  std::vector<MxPub *> ArgPs(static_cast<size_t>(NArgs));
  std::vector<ValuePtr> CallArgs;
  CallArgs.reserve(static_cast<size_t>(NArgs));
  for (int K = 0; K != NArgs; ++K) {
    ArgPs[K] = va_arg(Ap, MxPub *);
    if (!ArgPs[K])
      throw MatlabError("internal: null argument value");
    CallArgs.push_back(boxOf(ArgPs[K])->V);
  }
  chargeCall(*Fr->Ctx);
  std::vector<ValuePtr> Rs = Fr->Host->callFunction(
      Name, std::move(CallArgs), Stmt ? 0 : static_cast<size_t>(NDsts));
  for (int K = 0; K != NDsts; ++K) {
    if (static_cast<size_t>(K) >= Rs.size()) {
      if (Stmt) {
        *Dsts[K] = nullptr;
        continue;
      }
      throw MatlabError("not enough output arguments");
    }
    *Dsts[K] = Fr->box(Rs[K]);
  }
  // The callee may have retained references to the arguments (their
  // use counts changed under us): recompute the write caches.
  for (int K = 0; K != NArgs; ++K)
    refresh(boxOf(ArgPs[K]));
}

//===----------------------------------------------------------------------===//
// The callbacks. MLF_SHIM_END is the error trampoline tail: by the time
// the longjmp runs, the catch has finished and the shim frame holds only
// trivially destructible locals.
//===----------------------------------------------------------------------===//

#define MLF_SHIM_END                                                           \
  catch (...) { Fr->Err = std::current_exception(); }                          \
  std::longjmp(Fr->Jb, 1)

MxPub *shimBoxF(double X) {
  NativeFrame *Fr = CurFrame;
  try {
    return Fr->box(makeScalar(X));
  }
  MLF_SHIM_END;
}

MxPub *shimBoxI(long long X) {
  NativeFrame *Fr = CurFrame;
  try {
    return Fr->box(makeValue(Value::intScalar(static_cast<double>(X))));
  }
  MLF_SHIM_END;
}

MxPub *shimBoxB(long long X) {
  NativeFrame *Fr = CurFrame;
  try {
    return Fr->box(makeBool(X != 0));
  }
  MLF_SHIM_END;
}

MxPub *shimBoxC(double Re, double Im) {
  NativeFrame *Fr = CurFrame;
  try {
    return Fr->box(makeValue(Value::complexScalar(Re, Im)));
  }
  MLF_SHIM_END;
}

MxPub *shimStringConst(const char *S) {
  NativeFrame *Fr = CurFrame;
  try {
    return Fr->box(makeValue(Value::str(S)));
  }
  MLF_SHIM_END;
}

MxPub *shimRetain(MxPub *P) {
  NativeFrame *Fr = CurFrame;
  try {
    if (!P)
      return nullptr;
    Box *Old = boxOf(P);
    MxPub *Copy = Fr->box(Old->V);
    refresh(Old); // now shared: both boxes drop to slow-path stores
    return Copy;
  }
  MLF_SHIM_END;
}

double shimGetScalar(MxPub *P) {
  NativeFrame *Fr = CurFrame;
  try {
    return exec::realScalar(val(P));
  }
  MLF_SHIM_END;
}

long long shimGetIntScalar(MxPub *P) {
  NativeFrame *Fr = CurFrame;
  try {
    return exec::integerScalar(val(P));
  }
  MLF_SHIM_END;
}

void shimGetComplex(MxPub *P, double *Re, double *Im) {
  NativeFrame *Fr = CurFrame;
  try {
    const Value &V = val(P);
    if (!V.isScalar())
      throw MatlabError("expected a scalar value");
    *Re = V.re(0);
    *Im = V.im(0);
    return;
  }
  MLF_SHIM_END;
}

long long shimIsTrue(MxPub *P) {
  NativeFrame *Fr = CurFrame;
  try {
    return val(P).isTrue() ? 1 : 0;
  }
  MLF_SHIM_END;
}

long long shimCheckSubscript(double X) {
  NativeFrame *Fr = CurFrame;
  try {
    return static_cast<long long>(rt::checkSubscript(X));
  }
  MLF_SHIM_END;
}

void shimCheckDefined(MxPub *P, const char *Name) {
  NativeFrame *Fr = CurFrame;
  try {
    if (!P)
      throw MatlabError(
          format("undefined function or variable '%s'", Name));
    return;
  }
  MLF_SHIM_END;
}

double shimGuard(int Intr, double X) {
  NativeFrame *Fr = CurFrame;
  try {
    exec::checkIntrinsicGuard(static_cast<ScalarIntrinsic>(Intr), X);
    return X;
  }
  MLF_SHIM_END;
}

double shimPowDeopt(double X, double Y) {
  NativeFrame *Fr = CurFrame;
  (void)Y;
  try {
    // Negative base, non-integral exponent: the result is complex, which
    // generated code cannot represent - replay in the general tiers.
    throw DeoptError{ScalarIntrinsic::None, X};
  }
  MLF_SHIM_END;
}

double *shimDeoptComplex(void) {
  NativeFrame *Fr = CurFrame;
  try {
    throw DeoptError{ScalarIntrinsic::None, 0.0};
  }
  MLF_SHIM_END;
}

long long shimNullLen(void) {
  NativeFrame *Fr = CurFrame;
  try {
    throw MatlabError("internal: use of an empty value register");
  }
  MLF_SHIM_END;
}

MxPub *shimZeros(long long R, long long C, int Klass) {
  NativeFrame *Fr = CurFrame;
  try {
    long long Rc = R < 0 ? 0 : R, Cc = C < 0 ? 0 : C;
    return Fr->box(makeValue(Value::zeros(static_cast<size_t>(Rc),
                                          static_cast<size_t>(Cc),
                                          static_cast<MClass>(Klass))));
  }
  MLF_SHIM_END;
}

void shimFill(MxPub *P, double X) {
  NativeFrame *Fr = CurFrame;
  try {
    val(P); // null check with the VM's error
    Box *B = boxOf(P);
    Value &V = makeUnique(B->V);
    std::fill(V.reData(), V.reData() + V.numel(), X);
    refresh(B);
    return;
  }
  MLF_SHIM_END;
}

double shimLoadChk(MxPub *P, long long I) {
  NativeFrame *Fr = CurFrame;
  try {
    const Value &V = exec::requireRealData(val(P));
    if (I < 0 || static_cast<size_t>(I) >= V.numel())
      rt::throwBadRead(I + 1, V.numel());
    return V.re(static_cast<size_t>(I));
  }
  MLF_SHIM_END;
}

double shimLoad2Chk(MxPub *P, long long R, long long C) {
  NativeFrame *Fr = CurFrame;
  try {
    const Value &V = exec::requireRealData(val(P));
    if (R < 0 || C < 0 || static_cast<size_t>(R) >= V.rows() ||
        static_cast<size_t>(C) >= V.cols())
      rt::throwBadRead(R + 1, C + 1, V.rows(), V.cols());
    return V.at(static_cast<size_t>(R), static_cast<size_t>(C));
  }
  MLF_SHIM_END;
}

void shimStoreSlow(MxPub **PP, long long I, double X, int Klass) {
  NativeFrame *Fr = CurFrame;
  try {
    val(*PP);
    Box *B = boxOf(*PP);
    Value &V = makeUnique(B->V);
    exec::promoteClass(V, static_cast<MClass>(Klass));
    exec::storeDirect(V, static_cast<size_t>(I), X);
    refresh(B);
    return;
  }
  MLF_SHIM_END;
}

void shimStoreGrow(MxPub **PP, long long I, double X, int Klass) {
  NativeFrame *Fr = CurFrame;
  try {
    if (!*PP)
      *PP = Fr->box(makeValue(Value()));
    Box *B = boxOf(*PP);
    Value &V = makeUnique(B->V);
    if (I < 0)
      throw MatlabError("subscript indices must be positive integers");
    if (static_cast<size_t>(I) < V.numel()) {
      exec::promoteClass(V, static_cast<MClass>(Klass));
      exec::storeDirect(V, static_cast<size_t>(I), X);
    } else {
      Value RHS = Value::scalar(X);
      RHS.setClass(static_cast<MClass>(Klass));
      rt::indexAssign1(V, Indexer::single(static_cast<size_t>(I)), RHS);
    }
    refresh(B);
    return;
  }
  MLF_SHIM_END;
}

void shimStore2Slow(MxPub **PP, long long R, long long C, double X,
                    int Klass) {
  NativeFrame *Fr = CurFrame;
  try {
    val(*PP);
    Box *B = boxOf(*PP);
    Value &V = makeUnique(B->V);
    exec::promoteClass(V, static_cast<MClass>(Klass));
    exec::storeDirect(V,
                      static_cast<size_t>(C) * V.rows() +
                          static_cast<size_t>(R),
                      X);
    refresh(B);
    return;
  }
  MLF_SHIM_END;
}

void shimStore2Grow(MxPub **PP, long long R, long long C, double X,
                    int Klass) {
  NativeFrame *Fr = CurFrame;
  try {
    if (!*PP)
      *PP = Fr->box(makeValue(Value()));
    Box *B = boxOf(*PP);
    Value &V = makeUnique(B->V);
    if (R < 0 || C < 0)
      throw MatlabError("subscript indices must be positive integers");
    if (static_cast<size_t>(R) < V.rows() &&
        static_cast<size_t>(C) < V.cols()) {
      exec::promoteClass(V, static_cast<MClass>(Klass));
      exec::storeDirect(V,
                        static_cast<size_t>(C) * V.rows() +
                            static_cast<size_t>(R),
                        X);
    } else {
      Value RHS = Value::scalar(X);
      RHS.setClass(static_cast<MClass>(Klass));
      rt::indexAssign2(V, Indexer::single(static_cast<size_t>(R)),
                       Indexer::single(static_cast<size_t>(C)), RHS);
    }
    refresh(B);
    return;
  }
  MLF_SHIM_END;
}

MxPub *shimRtBin(int Op, MxPub *A, MxPub *B) {
  NativeFrame *Fr = CurFrame;
  try {
    return Fr->box(makeValue(
        rt::binary(static_cast<rt::BinOp>(Op), val(A), val(B))));
  }
  MLF_SHIM_END;
}

MxPub *shimRtUn(int Op, MxPub *A) {
  NativeFrame *Fr = CurFrame;
  try {
    return Fr->box(makeValue(rt::unary(static_cast<rt::UnOp>(Op), val(A))));
  }
  MLF_SHIM_END;
}

MxPub *shimColSlice(MxPub *P, long long C) {
  NativeFrame *Fr = CurFrame;
  try {
    return Fr->box(makeValue(rt::index2(
        val(P), Indexer::colon(), Indexer::single(static_cast<size_t>(C)))));
  }
  MLF_SHIM_END;
}

MxPub *shimRange3(double A, double S, double B) {
  NativeFrame *Fr = CurFrame;
  try {
    return Fr->box(makeValue(Value::range(A, S, B)));
  }
  MLF_SHIM_END;
}

MxPub *shimColonV(MxPub *A, MxPub *S, MxPub *B) {
  NativeFrame *Fr = CurFrame;
  try {
    return Fr->box(makeValue(rt::colon(val(A), val(S), val(B))));
  }
  MLF_SHIM_END;
}

MxPub *shimCat(int Horz, int N, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, N);
  try {
    MxPub *R = hostCat(Fr, Horz, N, Ap);
    va_end(Ap);
    return R;
  } catch (...) {
    Fr->Err = std::current_exception();
  }
  va_end(Ap);
  std::longjmp(Fr->Jb, 1);
}

MxPub *shimIndexLoad(MxPub *Base, int N, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, N);
  try {
    MxPub *R = hostIndexLoad(Fr, Base, N, Ap);
    va_end(Ap);
    return R;
  } catch (...) {
    Fr->Err = std::current_exception();
  }
  va_end(Ap);
  std::longjmp(Fr->Jb, 1);
}

void shimIndexAssign(MxPub **Base, MxPub *Rhs, int N, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, N);
  try {
    hostIndexAssign(Fr, Base, Rhs, N, Ap);
    va_end(Ap);
    return;
  } catch (...) {
    Fr->Err = std::current_exception();
  }
  va_end(Ap);
  std::longjmp(Fr->Jb, 1);
}

MxPub *shimEwAlloc(int NOps, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, NOps);
  try {
    MxPub *R = hostEwAlloc(Fr, NOps, Ap);
    va_end(Ap);
    return R;
  } catch (...) {
    Fr->Err = std::current_exception();
  }
  va_end(Ap);
  std::longjmp(Fr->Jb, 1);
}

MxPub *shimGemv(MxPub *AP, MxPub *XP) {
  NativeFrame *Fr = CurFrame;
  try {
    const Value &A = val(AP);
    const Value &X = val(XP);
    if (!A.isComplex() && !X.isComplex() && X.isColVector() &&
        A.cols() == X.rows()) {
      Value Y = Value::zeros(A.rows(), 1);
      blas::dgemv(A.rows(), A.cols(), 1.0, A.reData(), X.reData(), 0.0,
                  Y.reData());
      return Fr->box(makeValue(std::move(Y)));
    }
    return Fr->box(makeValue(rt::binary(rt::BinOp::MatMul, A, X)));
  }
  MLF_SHIM_END;
}

MxPub *shimAxpy(double A, MxPub *XP, MxPub *YP) {
  NativeFrame *Fr = CurFrame;
  try {
    const Value &X = val(XP);
    const Value &Y = val(YP);
    if (!X.isComplex() && !Y.isComplex() && X.rows() == Y.rows() &&
        X.cols() == Y.cols()) {
      Value Out = Value::zeros(X.rows(), X.cols());
      blas::daxpyz(X.numel(), A, X.reData(), Y.reData(), Out.reData());
      return Fr->box(makeValue(std::move(Out)));
    }
    Value Scaled = rt::binary(rt::BinOp::MatMul, Value::scalar(A), X);
    return Fr->box(makeValue(rt::binary(rt::BinOp::Add, Scaled, Y)));
  }
  MLF_SHIM_END;
}

void shimCallBuiltin(const char *Name, int Stmt, int NDsts, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, NDsts);
  try {
    hostCallBuiltin(Fr, Name, Stmt, NDsts, Ap);
    va_end(Ap);
    return;
  } catch (...) {
    Fr->Err = std::current_exception();
  }
  va_end(Ap);
  std::longjmp(Fr->Jb, 1);
}

void shimCallFunction(const char *Name, int Stmt, int NDsts, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, NDsts);
  try {
    hostCallFunction(Fr, Name, Stmt, NDsts, Ap);
    va_end(Ap);
    return;
  } catch (...) {
    Fr->Err = std::current_exception();
  }
  va_end(Ap);
  std::longjmp(Fr->Jb, 1);
}

void shimDisplay(MxPub *P, const char *Name) {
  NativeFrame *Fr = CurFrame;
  try {
    // A null register is an absent optional output: nothing to display.
    if (P)
      Fr->Ctx->print(rt::displayValue(*boxOf(P)->V, Name));
    return;
  }
  MLF_SHIM_END;
}

void shimPoll(long long N) {
  NativeFrame *Fr = CurFrame;
  try {
    Fr->Ctx->Exec.consume(static_cast<uint64_t>(N));
    return;
  }
  MLF_SHIM_END;
}

MxCallState *shimCallState() { return &CurFrame->Calls; }

/// Frees the boxes a direct callee made. Only the callee's own registers
/// pointed at them (its parameters and result are C scalars), and the
/// caller has read the result, so nothing can reach them any more.
void shimRelease(long long Mark) {
  NativeFrame *Fr = CurFrame;
  Fr->Boxes.resize(static_cast<size_t>(Mark));
  Fr->Calls.Boxes = Mark;
}

void shimRaise(const char *Message) {
  NativeFrame *Fr = CurFrame;
  try {
    throw MatlabError(Message);
  }
  MLF_SHIM_END;
}

/// Minimal-frame setjmp wrapper: keeping the setjmp in a function whose
/// locals are all parameters sidesteps -Wclobbered and keeps the
/// longjmp's reentry point trivial. Returns -1 when a callback trapped
/// an error (parked in Fr.Err).
int invokeEntry(NativeFrame &Fr, NativeEntryFn Entry, MxPub **ArgPs,
                int NArgs, MxPub **OutPs, int NOuts) {
  if (setjmp(Fr.Jb) != 0)
    return -1;
  return Entry(ArgPs, NArgs, OutPs, NOuts);
}

} // namespace

const MajicNativeApi &majic::native::hostApiTable() {
  static const MajicNativeApi Api = {
      shimBoxF,        shimBoxI,        shimBoxB,       shimBoxC,
      shimStringConst, shimRetain,      shimGetScalar,  shimGetIntScalar,
      shimGetComplex,  shimIsTrue,      shimCheckSubscript,
      shimCheckDefined, shimGuard,      shimPowDeopt,   shimDeoptComplex,
      shimNullLen,     shimZeros,       shimFill,       shimLoadChk,
      shimLoad2Chk,    shimStoreSlow,   shimStoreGrow,  shimStore2Slow,
      shimStore2Grow,  shimRtBin,       shimRtUn,       shimColSlice,
      shimRange3,      shimColonV,      shimCat,        shimIndexLoad,
      shimIndexAssign, shimEwAlloc,     shimGemv,       shimAxpy,
      shimCallBuiltin, shimCallFunction, shimDisplay,   shimPoll,
      shimCallState,   shimRaise,       shimRelease,
  };
  return Api;
}

std::vector<ValuePtr> majic::native::runNative(
    NativeEntryFn Entry, const std::string &Name, size_t FnNumOuts,
    const std::vector<std::string> &OutNames, Context &Ctx, NativeHost &Host,
    const std::vector<ValuePtr> &Args, size_t NumOuts) {
  // The fault site fires before any observable side effect, so the
  // engine can treat an injected native-run fault as "tier unavailable"
  // and replay in the VM with identical results.
  faults::killPoint(faults::Site::NativeRun);
  faults::maybeThrow(faults::Site::NativeRun);
  obs::TraceScope Span("native.run", "exec", Name.c_str());

  // On the heap: a recursion through the host nests one runNative per
  // level, and the jump buffer and box deque would make this frame the
  // largest of the cycle (MaxCallDepth must be reachable on an 8 MB stack).
  auto Owned = std::make_unique<NativeFrame>();
  NativeFrame &Frame = *Owned;
  Frame.Ctx = &Ctx;
  Frame.Host = &Host;
  Frame.Calls = {&Host.callDepth(), Host.maxCallDepth(), 0, 0};
  const unsigned Depth = Host.callDepth();
  FrameGuard G(&Frame);

  std::vector<MxPub *> ArgPs;
  ArgPs.reserve(Args.size());
  for (const ValuePtr &A : Args)
    ArgPs.push_back(Frame.box(A));
  std::vector<MxPub *> OutPs(std::max<size_t>(FnNumOuts, 1), nullptr);

  int Rc = invokeEntry(Frame, Entry, ArgPs.data(),
                       static_cast<int>(Args.size()), OutPs.data(),
                       static_cast<int>(FnNumOuts));
  if (Frame.Calls.Calls)
    Host.noteDirectCalls(static_cast<uint64_t>(Frame.Calls.Calls));
  if (Rc != 0) {
    // The direct calls the error unwound never lowered the depth.
    Host.callDepth() = Depth;
    if (Frame.Err)
      std::rethrow_exception(Frame.Err);
    // An entry point returning nonzero without a parked error has no
    // defined meaning; treat it as a deopt so the VM re-runs the call.
    throw DeoptError{ScalarIntrinsic::None, 0.0};
  }
  // The direct calls since the last poll (every 256th) are still owed.
  if (uint64_t Owed = static_cast<uint64_t>(Frame.Calls.Calls & 0xff))
    Ctx.Exec.consume(Owed);

  std::vector<ValuePtr> Outs(FnNumOuts);
  for (size_t K = 0; K != FnNumOuts; ++K)
    if (OutPs[K])
      Outs[K] = boxOf(OutPs[K])->V;
  return exec::takeOutputs(Outs, NumOuts, Name, OutNames);
}

const std::string &majic::native::preludeSource() {
  static const std::string Text = format(R"MLF(/* majic_mlf.h - the mlf-style runtime interface for MaJIC-generated C.
 * Emitted by the host engine beside each generated source. The layouts of
 * mxValue and MajicNativeApi mirror native/NativeABI.h field for field
 * (native ABI version %d); the numeric operator/class codes baked into
 * the macros are pinned by static_asserts in NativeRuntime.cpp.
 */
#ifndef MAJIC_MLF_H
#define MAJIC_MLF_H

#include <math.h>
#include <string.h>

/* The public prefix of a boxed value. wclass caches the value's class
 * while an element store may write the array directly (unique reference,
 * class <= real); -1 forces the slow path through the host. */
typedef struct mxValue {
  double *re;
  long long rows;
  long long cols;
  long long numel;
  int wclass;
  int klass; /* 0 bool, 1 int, 2 real, 3 complex, 4 string */
} mxValue;

/* Direct self-call bookkeeping (see mlfDirectEnter). */
typedef struct mlfCallState {
  unsigned *depth;
  unsigned max_depth;
  long long calls;
  long long boxes;
} mlfCallState;

typedef struct MajicNativeApi {
  mxValue *(*box_f)(double);
  mxValue *(*box_i)(long long);
  mxValue *(*box_b)(long long);
  mxValue *(*box_c)(double, double);
  mxValue *(*string_const)(const char *);
  mxValue *(*retain)(mxValue *);
  double (*get_scalar)(mxValue *);
  long long (*get_int_scalar)(mxValue *);
  void (*get_complex)(mxValue *, double *, double *);
  long long (*is_true)(mxValue *);
  long long (*check_subscript)(double);
  void (*check_defined)(mxValue *, const char *);
  double (*guard)(int, double);
  double (*pow_deopt)(double, double);
  double *(*deopt_complex)(void);
  long long (*null_len)(void);
  mxValue *(*zeros)(long long, long long, int);
  void (*fill)(mxValue *, double);
  double (*load_chk)(mxValue *, long long);
  double (*load2_chk)(mxValue *, long long, long long);
  void (*store_slow)(mxValue **, long long, double, int);
  void (*store_grow)(mxValue **, long long, double, int);
  void (*store2_slow)(mxValue **, long long, long long, double, int);
  void (*store2_grow)(mxValue **, long long, long long, double, int);
  mxValue *(*rt_bin)(int, mxValue *, mxValue *);
  mxValue *(*rt_un)(int, mxValue *);
  mxValue *(*col_slice)(mxValue *, long long);
  mxValue *(*range3)(double, double, double);
  mxValue *(*colonv)(mxValue *, mxValue *, mxValue *);
  mxValue *(*cat)(int, int, ...);
  mxValue *(*index_load)(mxValue *, int, ...);
  void (*index_assign)(mxValue **, mxValue *, int, ...);
  mxValue *(*ew_alloc)(int, ...);
  mxValue *(*gemv)(mxValue *, mxValue *);
  mxValue *(*axpy)(double, mxValue *, mxValue *);
  void (*call_builtin)(const char *, int, int, ...);
  void (*call_function)(const char *, int, int, ...);
  void (*display)(mxValue *, const char *);
  void (*poll)(long long);
  mlfCallState *(*call_state)(void);
  void (*raise)(const char *);
  void (*release)(long long);
} MajicNativeApi;

static const MajicNativeApi *mlf_api;

int majic_native_init(const MajicNativeApi *api, int abi_version) {
  if (abi_version != %d)
    return 1;
  mlf_api = api;
  return 0;
}

/* Bit-exact double from its IEEE-754 image: the emitter uses this for
 * inf/nan literals, and mlf_rem for MATLAB's canonical quiet NaN. */
static inline double mlf_f64bits(unsigned long long b) {
  double d;
  memcpy(&d, &b, sizeof d);
  return d;
}

/* Colon sentinel for index argument lists. */
#define MLF_COLON ((mxValue *)1)

/* Scalar math kept bit-identical to the host's evalScalarIntrinsic:
 * min/max use the interpreter's comparison form (NOT fmin/fmax, whose
 * NaN handling differs), rem's y==0 case is the canonical quiet NaN
 * (NOT 0.0/0.0, which is -nan on x86). */
#define mlf_sign(x) ((x) > 0 ? 1.0 : ((x) < 0 ? -1.0 : 0.0))
#define mlf_mod(x, y) ((y) == 0 ? (x) : (x)-floor((x) / (y)) * (y))
#define mlf_rem(x, y)                                                      \
  ((y) == 0 ? mlf_f64bits(0x7ff8000000000000ull)                           \
            : (x)-trunc((x) / (y)) * (y))
#define mlf_min2(x, y) ((y) < (x) ? (y) : (x))
#define mlf_max2(x, y) ((x) < (y) ? (y) : (x))

/* Guarded elementwise power: a negative base with a non-integral
 * exponent escalates to a complex result, which only the general tiers
 * can produce - deoptimize through the host. */
#define mlf_powg(x, y)                                                     \
  (((x) < 0 && (y) != floor(y)) ? mlf_api->pow_deopt((x), (y))             \
                                : pow((x), (y)))

/* Data access. Reading a complex (or absent) value through the real view
 * would drop the imaginary half, so it deoptimizes instead. */
#define mxRe(p)                                                            \
  (((p) == 0 || (p)->klass == 3) ? mlf_api->deopt_complex() : (p)->re)
#define mxRows(p) ((p) ? (p)->rows : mlf_api->null_len())
#define mxCols(p) ((p) ? (p)->cols : mlf_api->null_len())
#define mxNumel(p) ((p) ? (p)->numel : mlf_api->null_len())
#define mxRetain(p) (mlf_api->retain(p))

/* Element stores: one compare + one move when the write cache allows,
 * host slow path (copy-on-write, class promotion, growth) otherwise. */
#define mlfStore(pp, i, x, cls)                                            \
  do {                                                                     \
    if (*(pp) && (*(pp))->wclass >= (cls))                                 \
      (*(pp))->re[(i)] = (x);                                              \
    else                                                                   \
      mlf_api->store_slow((pp), (i), (x), (cls));                          \
  } while (0)
#define mlfStoreGrow(pp, i, x, cls)                                        \
  do {                                                                     \
    if (*(pp) && (*(pp))->wclass >= (cls) && (i) >= 0 &&                   \
        (i) < (*(pp))->numel)                                              \
      (*(pp))->re[(i)] = (x);                                              \
    else                                                                   \
      mlf_api->store_grow((pp), (i), (x), (cls));                          \
  } while (0)
#define mlfStore2(pp, r, c, x, cls)                                        \
  do {                                                                     \
    if (*(pp) && (*(pp))->wclass >= (cls))                                 \
      (*(pp))->re[(c) * (*(pp))->rows + (r)] = (x);                        \
    else                                                                   \
      mlf_api->store2_slow((pp), (r), (c), (x), (cls));                    \
  } while (0)
#define mlfStore2Grow(pp, r, c, x, cls)                                    \
  do {                                                                     \
    if (*(pp) && (*(pp))->wclass >= (cls) && (r) >= 0 &&                   \
        (r) < (*(pp))->rows && (c) >= 0 && (c) < (*(pp))->cols)            \
      (*(pp))->re[(c) * (*(pp))->rows + (r)] = (x);                        \
    else                                                                   \
      mlf_api->store2_grow((pp), (r), (c), (x), (cls));                    \
  } while (0)

/* Checked loads: fast path in bounds on a real array, host otherwise
 * (identical out-of-bounds messages, complex deopt). */
#define mlfLoadChecked(p, i)                                               \
  (((p) && (p)->klass != 3 && (i) >= 0 && (i) < (p)->numel)                \
       ? (p)->re[(i)]                                                      \
       : mlf_api->load_chk((p), (i)))
#define mlfLoad2Checked(p, r, c)                                           \
  (((p) && (p)->klass != 3 && (r) >= 0 && (r) < (p)->rows && (c) >= 0 &&   \
    (c) < (p)->cols)                                                       \
       ? (p)->re[(c) * (p)->rows + (r)]                                    \
       : mlf_api->load2_chk((p), (r), (c)))

/* Fused elementwise support. */
#define mlfEwAlloc(...) (mlf_api->ew_alloc(__VA_ARGS__))
#define mlfEwLoad(p, k) ((p)->numel == 1 ? (p)->re[0] : (p)->re[k])
#define mlfEwGuard(i, x) (mlf_api->guard((i), (x)))

/* Boxing / unboxing / checks. */
#define mlfScalar(x) (mlf_api->box_f(x))
#define mlfIntScalar(x) (mlf_api->box_i(x))
#define mlfLogicalScalar(x) (mlf_api->box_b(x))
#define mlfComplexScalar(re_, im_) (mlf_api->box_c((re_), (im_)))
#define mlfString(s) (mlf_api->string_const(s))
#define mlfGetScalar(p) (mlf_api->get_scalar(p))
#define mlfGetIntScalar(p) (mlf_api->get_int_scalar(p))
#define mlfGetComplexScalar(p, re_, im_)                                   \
  (mlf_api->get_complex((p), (re_), (im_)))
#define mlfIsTrue(p) (mlf_api->is_true(p))
#define mlfCheckSubscript(x) (mlf_api->check_subscript(x))
#define mlfCheckDefined(p, name) (mlf_api->check_defined((p), (name)))

/* Whole-value operations. */
#define mlfZeros(r, c, cls) (mlf_api->zeros((r), (c), (cls)))
#define mlfFill(p, x) (mlf_api->fill((p), (x)))
#define mlfColumn(p, c) (mlf_api->col_slice((p), (c)))
#define mlfColon(a, s, b) (mlf_api->range3((a), (s), (b)))
#define mlfColonV(a, s, b) (mlf_api->colonv((a), (s), (b)))
#define mlfUnary(op, p) (mlf_api->rt_un((op), (p)))
#define mlfHorzcat(...) (mlf_api->cat(1, __VA_ARGS__))
#define mlfVertcat(...) (mlf_api->cat(0, __VA_ARGS__))
#define mlfIndex(...) (mlf_api->index_load(__VA_ARGS__))
#define mlfIndexAssign(...) (mlf_api->index_assign(__VA_ARGS__))
#define mlfDgemv(a, x) (mlf_api->gemv((a), (x)))
#define mlfDaxpy(a, x, y) (mlf_api->axpy((a), (x), (y)))

/* Generic binary operators (rt::BinOp codes). */
#define mlfPlus(a, b) (mlf_api->rt_bin(0, (a), (b)))
#define mlfMinus(a, b) (mlf_api->rt_bin(1, (a), (b)))
#define mlfTimes(a, b) (mlf_api->rt_bin(2, (a), (b)))
#define mlfDotTimes(a, b) (mlf_api->rt_bin(3, (a), (b)))
#define mlfRdivide(a, b) (mlf_api->rt_bin(4, (a), (b)))
#define mlfDotRdivide(a, b) (mlf_api->rt_bin(5, (a), (b)))
#define mlfLdivide(a, b) (mlf_api->rt_bin(6, (a), (b)))
#define mlfDotLdivide(a, b) (mlf_api->rt_bin(7, (a), (b)))
#define mlfPower(a, b) (mlf_api->rt_bin(8, (a), (b)))
#define mlfDotPower(a, b) (mlf_api->rt_bin(9, (a), (b)))
#define mlfLt(a, b) (mlf_api->rt_bin(10, (a), (b)))
#define mlfLe(a, b) (mlf_api->rt_bin(11, (a), (b)))
#define mlfGt(a, b) (mlf_api->rt_bin(12, (a), (b)))
#define mlfGe(a, b) (mlf_api->rt_bin(13, (a), (b)))
#define mlfEq(a, b) (mlf_api->rt_bin(14, (a), (b)))
#define mlfNe(a, b) (mlf_api->rt_bin(15, (a), (b)))
#define mlfAnd(a, b) (mlf_api->rt_bin(16, (a), (b)))
#define mlfOr(a, b) (mlf_api->rt_bin(17, (a), (b)))

/* Calls, display, cooperative polling. */
#define mlfCallBuiltin(...) (mlf_api->call_builtin(__VA_ARGS__))
#define mlfCallFunction(...) (mlf_api->call_function(__VA_ARGS__))
#define mlfDisplay(p, name) (mlf_api->display((p), (name)))
#define mlfPoll(n) (mlf_api->poll(n))

/* Direct self-calls. Entering one raises the engine's call depth after
 * checking it against the limit a call through the host meets, with the
 * same text; every 256th call polls the op budget and interrupts, so each
 * call costs one op (the host charges the rest when the run ends).
 * Leaving one, after the caller has read the result, frees the boxes the
 * callee made: those past the mark taken before the call. An error
 * unwinds to the host, which restores the depth. */
#define mlfGetCallState() (mlf_api->call_state())
#define mlfBoxMark(cs) ((cs)->boxes)
#define mlfDirectEnter(cs)                                                 \
  do {                                                                     \
    if (*(cs)->depth >= (cs)->max_depth)                                   \
      mlf_api->raise("%s");                                                \
    ++*(cs)->depth;                                                        \
    if ((++(cs)->calls & 0xff) == 0)                                       \
      mlf_api->poll(256);                                                  \
  } while (0)
#define mlfDirectLeave(cs, mark)                                           \
  do {                                                                     \
    --*(cs)->depth;                                                        \
    if ((cs)->boxes != (mark))                                             \
      mlf_api->release(mark);                                              \
  } while (0)
#define mlfRaise(msg) (mlf_api->raise(msg))

#endif /* MAJIC_MLF_H */
)MLF",
                                         kNativeABIVersion,
                                         kNativeABIVersion,
                                         kMaxRecursionMessage);
  return Text;
}
