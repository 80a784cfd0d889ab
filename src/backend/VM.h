//===- backend/VM.h - The register VM --------------------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution machine for allocated IR: a register VM with fixed
/// physical register files and separate spill memory. This stands in for
/// vcode's native code emission (DESIGN.md substitution #1): unboxed
/// element access, spill traffic and bounds checks each cost real executed
/// instructions, so the paper's ablations (Figure 7) measure genuine
/// mechanisms.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_BACKEND_VM_H
#define MAJIC_BACKEND_VM_H

#include "ir/Instr.h"
#include "runtime/CallResolver.h"
#include "runtime/Builtins.h"
#include "runtime/Context.h"

#include <memory>
#include <vector>

namespace majic {

namespace obs {
class Counter;
}

/// Thrown when optimistic compiled code violates a runtime type guard
/// (e.g. sqrt of a negative value in code typed under the assumption the
/// domain holds). The engine catches it, recompiles the function without
/// optimism, and re-executes the invocation.
struct DeoptError {
  ScalarIntrinsic Guard;
  double Operand;
};

class VM {
public:
  /// \p DirectCalls, when given, counts the direct self-calls (CallSelf)
  /// this VM makes, added once per outermost invocation.
  VM(Context &Ctx, CallResolver &Resolver,
     obs::Counter *DirectCalls = nullptr)
      : Ctx(Ctx), Resolver(Resolver), DirectCallSink(DirectCalls) {}

  /// Executes the allocated function \p F with \p Args, producing
  /// \p NumOuts outputs. Throws MatlabError on runtime errors.
  std::vector<ValuePtr> run(const IRFunction &F, std::vector<ValuePtr> Args,
                            size_t NumOuts);

  /// Total instructions dispatched over this VM's lifetime (tests and the
  /// ablation benches use this as an architecture-neutral cost measure).
  uint64_t instructionsExecuted() const { return InstrCount; }

  /// Frames kept for reuse once no invocation is running (at most
  /// kRetainedFrames after a deep recursion unwinds).
  size_t retainedFrames() const { return Frames.size(); }

  static constexpr size_t kRetainedFrames = 64;

private:
  /// Register files and spill memory of one invocation. Frames[D] serves
  /// every invocation at VM nesting depth D (a CallU that re-enters run()
  /// through the resolver, or a CallSelf that re-enters the running code
  /// directly, nests one deeper), so a call reuses the vectors' capacity
  /// instead of allocating six of them. Heap-allocated one by one so a
  /// nested call growing Frames cannot move a live caller's frame.
  struct Frame {
    std::vector<double> FR, FSp;
    std::vector<int64_t> IR, ISp;
    std::vector<ValuePtr> PR, PSp, Outs;
  };
  class FrameScope;

  /// A direct self-call's scalars: its arguments as the caller's F or I
  /// registers hold them (ArgF/ArgI read them in place of unboxing a
  /// parameter), and its integer result, which OutI leaves unboxed.
  struct DirectCall {
    union Scalar {
      double F;
      int64_t I;
    };
    Scalar Args[selfcall::kMaxArgs] = {};
    int64_t Result = 0;
    bool HasResult = false; ///< set by OutI; otherwise Ret takes the box
  };

  /// run()'s body. \p Direct is null for an entry with boxed \p Args and
  /// a direct self-call's scalars for a CallSelf, which then returns no
  /// values: its result is in \p Direct.
  std::vector<ValuePtr> execute(const IRFunction &F,
                                const std::vector<ValuePtr> &Args,
                                size_t NumOuts, DirectCall *Direct);

  Context &Ctx;
  CallResolver &Resolver;
  obs::Counter *DirectCallSink;
  uint64_t InstrCount = 0;
  uint64_t DirectCalls = 0; ///< made since the sink was last credited
  std::vector<std::unique_ptr<Frame>> Frames;
  size_t Depth = 0; ///< invocations currently running on this VM
};

} // namespace majic

#endif // MAJIC_BACKEND_VM_H
