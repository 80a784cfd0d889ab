//===- native/NativeRuntime.cpp - Host side of the native tier -------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Boxes, the callback table, the setjmp/longjmp error trampoline, and the
// C prelude. A callback holds no semantics of its own: it unboxes its
// `MxPub *` operands, calls the one copy of the operation the VM's opcode
// case calls too (backend/ExecShared.h, or a one-line runtime call), and
// boxes the result, so the two tiers produce bit-identical values and
// byte-identical error messages by construction.
//
// Shim discipline: a callback does all C++ work inside attempt(), which
// parks an exception in the frame, and returns through settle(), which
// then longjmps - at that point no frame the jump leaves holds a live
// object with a destructor, so the jump crosses plain-C frames only, which
// C++ explicitly permits.
//
//===----------------------------------------------------------------------===//

#include "native/NativeRuntime.h"

#include "backend/ExecShared.h"
#include "obs/Trace.h"
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
#include <stdexcept>
#include <type_traits>

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

  Box *fresh();
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

/// A new box holding no value yet.
Box *NativeFrame::fresh() {
  Boxes.emplace_back();
  Calls.Boxes = static_cast<long long>(Boxes.size());
  return &Boxes.back();
}

MxPub *NativeFrame::box(ValuePtr P) {
  if (!P)
    return nullptr; // null registers stay null pointers, as in the VM
  Box *B = fresh();
  B->V = std::move(P);
  refresh(B);
  return pubOf(B);
}

MxPub *box(ValuePtr P) { return CurFrame->box(std::move(P)); }

/// The register an ABI pointer names: a box's value, or null.
const ValuePtr kNullRegister;
const ValuePtr &reg(MxPub *P) { return P ? boxOf(P)->V : kNullRegister; }

/// Runs an exec:: operation that writes register *\p PP in place, then
/// recomputes the box's prefix. A null register gets a box whose value
/// the operation creates, as it would in a VM register.
template <typename Fn> void update(MxPub **PP, Fn &&Write) {
  Box *B = *PP ? boxOf(*PP) : CurFrame->fresh();
  Write(B->V);
  refresh(B);
  *PP = pubOf(B);
}

/// Charges a call one op, like a direct self-call. Out of line: the budget
/// error's text would otherwise grow the frame of every call through the
/// host, which a recursion stacks once per level.
[[gnu::noinline]] void chargeCall(Context &Ctx) { Ctx.Exec.consume(1); }

//===----------------------------------------------------------------------===//
// The error trampoline. A callback runs its C++ work through attempt(),
// which parks an exception in the frame, and returns through settle(),
// which then longjmps back to invokeEntry. By the time the longjmp runs
// the catch has finished, and settle's and the callback's frames hold only
// trivially destructible locals (a variadic callback has ended its
// va_list), so the jump crosses no frame with a destructor to run, which
// C++ permits.
//===----------------------------------------------------------------------===//

template <typename Fn> auto attempt(Fn &&Body) noexcept -> decltype(Body()) {
  try {
    return Body();
  } catch (...) {
    CurFrame->Err = std::current_exception();
  }
  if constexpr (!std::is_void_v<decltype(Body())>)
    return {};
}

void settle() {
  if (CurFrame->Err)
    std::longjmp(CurFrame->Jb, 1);
}

template <typename T> T settle(T R) {
  static_assert(std::is_trivially_destructible_v<T>);
  settle();
  return R;
}

/// A non-variadic callback's whole body.
template <typename Fn> auto shim(Fn &&Body) -> decltype(Body()) {
  if constexpr (std::is_void_v<decltype(Body())>) {
    attempt(Body);
    settle();
  } else {
    return settle(attempt(Body));
  }
}

//===----------------------------------------------------------------------===//
// The callbacks. Each unboxes its operands, calls the operation's one copy
// (backend/ExecShared.h or a runtime call) and boxes the result.
//===----------------------------------------------------------------------===//

MxPub *shimBoxF(double X) {
  return shim([&] { return box(makeScalar(X)); });
}

MxPub *shimBoxI(long long X) {
  return shim([&] {
    return box(makeValue(Value::intScalar(static_cast<double>(X))));
  });
}

MxPub *shimBoxB(long long X) {
  return shim([&] { return box(makeBool(X != 0)); });
}

MxPub *shimBoxC(double Re, double Im) {
  return shim([&] { return box(makeValue(Value::complexScalar(Re, Im))); });
}

MxPub *shimStringConst(const char *S) {
  return shim([&] { return box(makeValue(Value::str(S))); });
}

MxPub *shimRetain(MxPub *P) {
  return shim([&]() -> MxPub * {
    if (!P)
      return nullptr;
    MxPub *Copy = box(boxOf(P)->V);
    refresh(boxOf(P)); // now shared: both boxes drop to slow-path stores
    return Copy;
  });
}

double shimGetScalar(MxPub *P) {
  return shim([&] { return exec::realScalar(exec::requireValue(reg(P))); });
}

long long shimGetIntScalar(MxPub *P) {
  return shim(
      [&] { return exec::integerScalar(exec::requireValue(reg(P))); });
}

void shimGetComplex(MxPub *P, double *Re, double *Im) {
  shim([&] { exec::complexScalar(reg(P), *Re, *Im); });
}

long long shimIsTrue(MxPub *P) {
  return shim([&] { return exec::requireValue(reg(P)).isTrue() ? 1LL : 0LL; });
}

long long shimCheckSubscript(double X) {
  return shim(
      [&] { return static_cast<long long>(rt::checkSubscript(X)); });
}

void shimCheckDefined(MxPub *P, const char *Name) {
  shim([&] { exec::checkDefined(reg(P), Name); });
}

double shimGuard(int Intr, double X) {
  return shim([&] {
    exec::checkIntrinsicGuard(static_cast<ScalarIntrinsic>(Intr), X);
    return X;
  });
}

double shimPowDeopt(double X, double) {
  // Negative base, non-integral exponent: the result is complex, which
  // generated code cannot represent - replay in the general tiers.
  return shim([&]() -> double { throw DeoptError{ScalarIntrinsic::None, X}; });
}

double *shimDeoptComplex(void) {
  return shim(
      []() -> double * { throw DeoptError{ScalarIntrinsic::None, 0.0}; });
}

/// mxRows, mxCols and mxNumel of a null register.
long long shimNullLen(void) {
  return shim([] {
    return static_cast<long long>(exec::requireValue(kNullRegister).numel());
  });
}

MxPub *shimZeros(long long R, long long C, int Klass) {
  return shim(
      [&] { return box(exec::zeros(R, C, static_cast<MClass>(Klass))); });
}

void shimFill(MxPub *P, double X) {
  shim([&] { update(&P, [&](ValuePtr &V) { exec::fill(V, X); }); });
}

double shimLoadChk(MxPub *P, long long I) {
  return shim([&] { return exec::loadChecked(reg(P), I); });
}

double shimLoad2Chk(MxPub *P, long long R, long long C) {
  return shim([&] { return exec::loadChecked2(reg(P), R, C); });
}

void shimStoreSlow(MxPub **PP, long long I, double X, int Klass) {
  shim([&] {
    update(PP, [&](ValuePtr &V) {
      exec::store(V, static_cast<size_t>(I), X, static_cast<MClass>(Klass));
    });
  });
}

void shimStoreGrow(MxPub **PP, long long I, double X, int Klass) {
  shim([&] {
    update(PP, [&](ValuePtr &V) {
      exec::storeGrow(V, I, X, static_cast<MClass>(Klass));
    });
  });
}

void shimStore2Slow(MxPub **PP, long long R, long long C, double X,
                    int Klass) {
  shim([&] {
    update(PP, [&](ValuePtr &V) {
      exec::store2(V, static_cast<size_t>(R), static_cast<size_t>(C), X,
                   static_cast<MClass>(Klass));
    });
  });
}

void shimStore2Grow(MxPub **PP, long long R, long long C, double X,
                    int Klass) {
  shim([&] {
    update(PP, [&](ValuePtr &V) {
      exec::storeGrow2(V, R, C, X, static_cast<MClass>(Klass));
    });
  });
}

MxPub *shimRtBin(int Op, MxPub *A, MxPub *B) {
  return shim([&] {
    return box(makeValue(rt::binary(static_cast<rt::BinOp>(Op),
                                    exec::requireValue(reg(A)),
                                    exec::requireValue(reg(B)))));
  });
}

MxPub *shimRtUn(int Op, MxPub *A) {
  return shim([&] {
    return box(makeValue(
        rt::unary(static_cast<rt::UnOp>(Op), exec::requireValue(reg(A)))));
  });
}

MxPub *shimColSlice(MxPub *P, long long C) {
  return shim([&] {
    return box(makeValue(
        rt::index2(exec::requireValue(reg(P)), Indexer::colon(),
                   Indexer::single(static_cast<size_t>(C)))));
  });
}

MxPub *shimRange3(double A, double S, double B) {
  return shim([&] { return box(makeValue(Value::range(A, S, B))); });
}

MxPub *shimColonV(MxPub *A, MxPub *S, MxPub *B) {
  return shim([&] {
    return box(makeValue(rt::colon(exec::requireValue(reg(A)),
                                   exec::requireValue(reg(S)),
                                   exec::requireValue(reg(B)))));
  });
}

MxPub *shimGemv(MxPub *A, MxPub *X) {
  return shim([&] { return box(exec::gemv(reg(A), reg(X))); });
}

MxPub *shimAxpy(double A, MxPub *X, MxPub *Y) {
  return shim([&] { return box(exec::axpy(A, reg(X), reg(Y))); });
}

MxPub *shimMatMulT(int Op, MxPub *X, MxPub *Y) {
  return shim([&] { return box(exec::matMulT(Op, reg(X), reg(Y))); });
}

double shimDotT(int Op, MxPub *X, MxPub *Y) {
  return shim([&] { return exec::dotT(Op, reg(X), reg(Y)); });
}

void shimDisplay(MxPub *P, const char *Name) {
  shim([&] { exec::display(*CurFrame->Ctx, reg(P), Name); });
}

void shimPoll(long long N) {
  shim([&] { CurFrame->Ctx->Exec.consume(static_cast<uint64_t>(N)); });
}

void shimRaise(const char *Message) {
  shim([&] { throw MatlabError(Message); });
}

MxCallState *shimCallState() { return &CurFrame->Calls; }

/// Draws from the context's one generator, as the VM's FRand does, so a
/// deopt's snapshot of Ctx.Rand rolls machine code's draws back too. It
/// cannot throw, so it needs no trampoline.
double shimRand() { return CurFrame->Ctx->Rand.nextDouble(); }

/// Frees the boxes a direct callee made. Only the callee's own registers
/// pointed at them (its parameters and result are C scalars), and the
/// caller has read the result, so nothing can reach them any more.
void shimRelease(long long Mark) {
  NativeFrame *Fr = CurFrame;
  Fr->Boxes.resize(static_cast<size_t>(Mark));
  Fr->Calls.Boxes = Mark;
}

//===----------------------------------------------------------------------===//
// The variadic callbacks: va_start and va_end stay in the callback itself,
// around attempt(), and settle() runs after va_end. The accessors read the
// arguments in order, one per call, as ExecShared.h's list operations ask.
//===----------------------------------------------------------------------===//

/// Reads the next argument as a register.
const ValuePtr &nextReg(va_list &Ap) { return reg(va_arg(Ap, MxPub *)); }

MxPub *shimCat(int Horz, int N, ...) {
  va_list Ap;
  va_start(Ap, N);
  MxPub *R = attempt([&] {
    return box(exec::concat(Horz != 0, N, [&](int) -> const ValuePtr & {
      return nextReg(Ap);
    }));
  });
  va_end(Ap);
  return settle(R);
}

/// Reads the next argument as a subscript: a register, or null for a colon.
const ValuePtr *nextSub(va_list &Ap) {
  MxPub *P = va_arg(Ap, MxPub *);
  return P == kColonSentinel ? nullptr : &reg(P);
}

MxPub *shimIndexLoad(MxPub *Base, int N, ...) {
  va_list Ap;
  va_start(Ap, N);
  MxPub *R = attempt([&] {
    return box(
        exec::indexLoad(reg(Base), N, [&](int) { return nextSub(Ap); }));
  });
  va_end(Ap);
  return settle(R);
}

void shimIndexAssign(MxPub **Base, MxPub *Rhs, int N, ...) {
  va_list Ap;
  va_start(Ap, N);
  attempt([&] {
    update(Base, [&](ValuePtr &V) {
      exec::indexAssign(V, reg(Rhs), N, [&](int) { return nextSub(Ap); });
    });
  });
  va_end(Ap);
  settle();
}

MxPub *shimEwAlloc(int NOps, ...) {
  va_list Ap;
  va_start(Ap, NOps);
  MxPub *R = attempt([&] {
    std::vector<const Value *> Ops(static_cast<size_t>(NOps));
    for (const Value *&Op : Ops)
      Op = nextReg(Ap).get();
    int Len = va_arg(Ap, int);
    const int *Prog = va_arg(Ap, const int *);
    exec::EwPlan Plan =
        exec::ewSimulate(Ops.data(), NOps, Prog, static_cast<size_t>(Len));
    return box(makeValue(Value::uninit(Plan.Rows, Plan.Cols, Plan.Class)));
  });
  va_end(Ap);
  return settle(R);
}

void shimCallBuiltin(const char *Name, int Stmt, int NDsts, ...) {
  va_list Ap;
  va_start(Ap, NDsts);
  attempt([&] {
    std::vector<MxPub **> Dsts(static_cast<size_t>(NDsts));
    for (MxPub **&D : Dsts)
      D = va_arg(Ap, MxPub **);
    int NArgs = va_arg(Ap, int);
    exec::callBuiltin(
        BuiltinTable::instance().lookup(Name), Name, *CurFrame->Ctx,
        Stmt != 0, NArgs,
        [&](int) -> const ValuePtr & { return nextReg(Ap); }, NDsts,
        [&](int K, ValuePtr V) { *Dsts[K] = box(std::move(V)); });
  });
  va_end(Ap);
  settle();
}

void shimCallFunction(const char *Name, int Stmt, int NDsts, ...) {
  va_list Ap;
  va_start(Ap, NDsts);
  attempt([&] {
    std::vector<MxPub **> Dsts(static_cast<size_t>(NDsts));
    for (MxPub **&D : Dsts)
      D = va_arg(Ap, MxPub **);
    int NArgs = va_arg(Ap, int);
    std::vector<MxPub *> ArgPs(static_cast<size_t>(NArgs));
    for (MxPub *&P : ArgPs)
      P = va_arg(Ap, MxPub *);
    NativeFrame *Fr = CurFrame;
    std::vector<ValuePtr> Args = exec::callArgs(
        NArgs, [&](int K) -> const ValuePtr & { return reg(ArgPs[K]); });
    chargeCall(*Fr->Ctx);
    std::vector<ValuePtr> Rs = Fr->Host->callFunction(
        Name, std::move(Args), Stmt ? 0 : static_cast<size_t>(NDsts));
    exec::callResults(Rs, Stmt != 0, NDsts, [&](int K, ValuePtr V) {
      *Dsts[K] = box(std::move(V));
    });
    // The callee may have retained references to the arguments (their
    // use counts changed under us): recompute the write caches.
    for (MxPub *P : ArgPs)
      refresh(boxOf(P));
  });
  va_end(Ap);
  settle();
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
      shimCallState,   shimRaise,       shimRelease,    shimRand,
      shimMatMulT,     shimDotT,
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
  Host.noteRun(static_cast<uint64_t>(Frame.Calls.Calls),
               static_cast<uint64_t>(Frame.Calls.Boxes));
  if (Rc != 0) {
    // The direct calls the error unwound never lowered the depth.
    Host.callDepth() = Depth;
    if (Frame.Err)
      std::rethrow_exception(Frame.Err);
    // An entry point returning nonzero without a parked error has no
    // defined meaning, and no VM guard mirrors it: fail the tier, so the
    // engine quarantines the module and the optimistic VM code serves
    // the call.
    throw std::runtime_error("native entry '" + Name +
                             "' failed without an error");
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
  double (*rand)(void);
  mxValue *(*mat_mul_t)(int, mxValue *, mxValue *);
  double (*dot_t)(int, mxValue *, mxValue *);
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
/* x' * y and x.' * y read x in place (op: 3 = ', 4 = .'); mlfDotT is the
 * scalar product of two real column vectors, unboxed. */
#define mlfMatMulT(op, x, y) (mlf_api->mat_mul_t((op), (x), (y)))
#define mlfDotT(op, x, y) (mlf_api->dot_t((op), (x), (y)))

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

/* Scalar rand: the next draw of the host context's generator. */
#define mlfRand() (mlf_api->rand())

#endif /* MAJIC_MLF_H */
)MLF",
                                         kNativeABIVersion,
                                         kNativeABIVersion,
                                         kMaxRecursionMessage);
  return Text;
}
