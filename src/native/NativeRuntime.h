//===- native/NativeRuntime.h - Host side of the native tier ----*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host half of the native execution tier: the C prelude text
/// (`majic_mlf.h`) that generated sources include, the callback table
/// that backs it, and `runNative` - the wrapper that marshals ValuePtr
/// arguments into ABI boxes, runs a compiled entry point under a
/// setjmp/longjmp error trampoline, and maps the results back with the
/// register VM's exact return semantics.
///
/// Error discipline: compiled modules are plain C and cannot unwind C++
/// exceptions. Every callback in the MajicNativeApi table catches at the
/// boundary, parks the exception_ptr in the active NativeFrame, and
/// longjmps back to runNative's setjmp (the jump crosses only C frames),
/// which rethrows on the host side - so MatlabError text, DeoptError
/// deopt routing, injected faults, and bad_alloc all survive the tier
/// transition with their identity intact.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_NATIVE_NATIVERUNTIME_H
#define MAJIC_NATIVE_NATIVERUNTIME_H

#include "native/NativeABI.h"
#include "runtime/Value.h"

#include <string>
#include <vector>

namespace majic {

class Context;

namespace native {

/// What the native tier needs from its embedder to run user-function
/// calls (Opcode::CallU, and the bookkeeping of Opcode::CallSelf) - the
/// engine implements this against its own dispatch, keeping the runtime
/// free of an engine dependency.
class NativeHost {
public:
  virtual ~NativeHost() = default;
  virtual std::vector<ValuePtr> callFunction(const std::string &Name,
                                             std::vector<ValuePtr> Args,
                                             size_t NumOuts) = 0;
  /// The call depth callFunction raises and its limit: a direct self-call
  /// in machine code raises and checks the same counter.
  virtual unsigned &callDepth() = 0;
  virtual unsigned maxCallDepth() const = 0;
  /// Counts, when one native run returns, the direct self-calls it made
  /// and the boxes it still held.
  virtual void noteRun(uint64_t DirectCalls, uint64_t Boxes) = 0;
};

/// The contents of `majic_mlf.h`: mxValue/MajicNativeApi in C, the
/// `majic_native_init` definition, and every `mlf*` macro the emitter
/// targets. Written beside each generated source before compiling.
const std::string &preludeSource();

/// The host's callback table, injected into modules at load time.
const MajicNativeApi &hostApiTable();

/// Runs one natively compiled function with the VM's calling convention:
/// \p FnNumOuts is the function's declared output count (IRFunction
/// NumOuts), \p OutNames their names, \p NumOuts the caller's nargout.
/// Shares VM::run's Ret semantics (exec::takeOutputs) and rethrows anything
/// a callback trapped, after restoring the host's call depth that direct
/// self-calls raised. Reentrant: a native function may call back into the
/// engine and land in another native frame.
std::vector<ValuePtr> runNative(NativeEntryFn Entry, const std::string &Name,
                                size_t FnNumOuts,
                                const std::vector<std::string> &OutNames,
                                Context &Ctx, NativeHost &Host,
                                const std::vector<ValuePtr> &Args,
                                size_t NumOuts);

} // namespace native
} // namespace majic

#endif // MAJIC_NATIVE_NATIVERUNTIME_H
