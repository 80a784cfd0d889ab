//===- native/NativeABI.h - The native-tier C ABI ---------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed ABI between the engine and natively compiled functions. A
/// native module is a shared object built by the system C compiler from
/// `emitCSource` output; it knows nothing about C++ - it sees boxed
/// values only through the public prefix below and calls back into the
/// host through a table of plain function pointers injected at load time
/// (`majic_native_init`), so the `.so` needs no symbols from the host
/// process and the host needs no `-rdynamic`.
///
/// Layout contract: `MxPub` is the first member of the host's Box (see
/// NativeRuntime.cpp), and the prelude's `struct mxValue` is its textual
/// twin. The `wclass` write-cache field lets generated code store
/// elements with one compare and one move: it holds the value's MClass
/// while the box's reference is unique and the class is at most Real,
/// and -1 whenever a store must take the slow path (copy-on-write,
/// class promotion, complex/string payloads, aliased boxes).
///
/// Versioning: bump kNativeABIVersion for ANY change to MxPub, to
/// MajicNativeApi (order included - modules index the table by layout),
/// or to the semantics the prelude macros bake in. The repository stamps
/// native payloads with this version plus the compiler identification,
/// so a stale `.so` is discarded, never called.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_NATIVE_NATIVEABI_H
#define MAJIC_NATIVE_NATIVEABI_H

namespace majic {
namespace native {

// v2: typed direct self-calls (MxCallState, call_state, raise, release).
// v3: rand, the scalar draw behind FRand.
// v4: mat_mul_t and dot_t, the products behind MatMulT and DotT.
constexpr int kNativeABIVersion = 4;

/// The C-visible public prefix of a boxed value ("mxValue" on the C
/// side). All fields are caches of the underlying Value, refreshed by
/// every host shim that may reallocate or retag the payload.
struct MxPub {
  double *Re;      ///< real data (never dereferenced when Klass is Complex)
  long long Rows;
  long long Cols;
  long long Numel;
  int WClass;      ///< fast-store class cache, -1 = slow path required
  int Klass;       ///< MClass as an int (Complex = 3 triggers deopt reads)
};

/// The bookkeeping of the direct self-calls one native run makes
/// ("mlfCallState" on the C side). A direct call raises the engine's call
/// depth and checks it against the same limit a call through the host
/// meets; Calls counts the direct calls made and paces their polls.
/// Boxes is the number of boxes the run holds: a direct call that returns
/// frees the boxes its callee made (release), so a recursion holds boxes
/// for the levels still running, not for every call it made.
struct MxCallState {
  unsigned *Depth;
  unsigned MaxDepth;
  long long Calls;
  long long Boxes;
};

/// The sentinel generated code passes for a colon (`:`) index argument.
inline MxPub *const kColonSentinel = reinterpret_cast<MxPub *>(1);

/// The callback table handed to a module via majic_native_init. The
/// member ORDER is the ABI: the prelude declares the identical struct in
/// C and indexes it by layout. Errors never cross this boundary as C++
/// exceptions - every callback traps them and longjmps back to the host
/// wrapper's setjmp, which rethrows on the C++ side.
struct MajicNativeApi {
  // Boxing.
  MxPub *(*box_f)(double X);
  MxPub *(*box_i)(long long X);
  MxPub *(*box_b)(long long X);
  MxPub *(*box_c)(double Re, double Im);
  MxPub *(*string_const)(const char *S);
  MxPub *(*retain)(MxPub *P);

  // Unboxing.
  double (*get_scalar)(MxPub *P);
  long long (*get_int_scalar)(MxPub *P);
  void (*get_complex)(MxPub *P, double *Re, double *Im);
  long long (*is_true)(MxPub *P);

  // Checks and guards.
  long long (*check_subscript)(double X);
  void (*check_defined)(MxPub *P, const char *Name);
  double (*guard)(int Intr, double X);
  double (*pow_deopt)(double X, double Y);
  double *(*deopt_complex)(void);
  long long (*null_len)(void);

  // Allocation and element access.
  MxPub *(*zeros)(long long R, long long C, int Klass);
  void (*fill)(MxPub *P, double X);
  double (*load_chk)(MxPub *P, long long I);
  double (*load2_chk)(MxPub *P, long long R, long long C);
  void (*store_slow)(MxPub **PP, long long I, double X, int Klass);
  void (*store_grow)(MxPub **PP, long long I, double X, int Klass);
  void (*store2_slow)(MxPub **PP, long long R, long long C, double X,
                      int Klass);
  void (*store2_grow)(MxPub **PP, long long R, long long C, double X,
                      int Klass);

  // Whole-value operations.
  MxPub *(*rt_bin)(int Op, MxPub *A, MxPub *B);
  MxPub *(*rt_un)(int Op, MxPub *A);
  MxPub *(*col_slice)(MxPub *V, long long C);
  MxPub *(*range3)(double A, double S, double B);
  MxPub *(*colonv)(MxPub *A, MxPub *S, MxPub *B);
  MxPub *(*cat)(int Horz, int N, ...);             // N operands
  MxPub *(*index_load)(MxPub *Base, int N, ...);   // N indexers
  void (*index_assign)(MxPub **Base, MxPub *Rhs, int N, ...);
  MxPub *(*ew_alloc)(int NOps, ...); // NOps operands, int len, const int *prog
  MxPub *(*gemv)(MxPub *A, MxPub *X);
  MxPub *(*axpy)(double A, MxPub *X, MxPub *Y);

  // Calls, display, polling.
  void (*call_builtin)(const char *Name, int Stmt, int NDsts, ...);
  void (*call_function)(const char *Name, int Stmt, int NDsts, ...);
  void (*display)(MxPub *P, const char *Name);
  void (*poll)(long long N);

  // Direct self-calls.
  MxCallState *(*call_state)(void);
  void (*raise)(const char *Message); ///< throws MatlabError(Message)
  void (*release)(long long Mark);    ///< frees the boxes past the Mark'th

  // Scalar rand.
  double (*rand)(void); ///< the next draw of the context's generator

  // Products with a transposed left operand (Op is the rt::UnOp).
  MxPub *(*mat_mul_t)(int Op, MxPub *X, MxPub *Y);
  double (*dot_t)(int Op, MxPub *X, MxPub *Y);
};

/// `<fn>_compiled`: the module entry point. Returns 0 on a normal Ret;
/// errors leave through the host's setjmp, never through this value.
using NativeEntryFn = int (*)(MxPub **Args, int NArgs, MxPub **Outs,
                              int NOuts);

/// `majic_native_init`: called once after dlopen; returns nonzero when
/// the module was built against a different ABI version.
using NativeInitFn = int (*)(const MajicNativeApi *Api, int AbiVersion);

} // namespace native
} // namespace majic

#endif // MAJIC_NATIVE_NATIVEABI_H
