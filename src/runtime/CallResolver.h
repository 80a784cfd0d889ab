//===- runtime/CallResolver.h - User-function call interface ---*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface through which executing code (the interpreter or compiled
/// code in the register VM) invokes user functions. The engine implements it
/// on top of the code repository: an invocation is matched against compiled
/// versions, possibly triggering JIT compilation, or falls back to the
/// interpreter (Section 2: the front end "defers computationally complex
/// tasks ... to the code repository").
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_RUNTIME_CALLRESOLVER_H
#define MAJIC_RUNTIME_CALLRESOLVER_H

#include "runtime/Value.h"
#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace majic {

/// The error a call raises when it would nest deeper than the engine's
/// MaxCallDepth, on every tier (native direct self-calls included).
inline constexpr const char *kMaxRecursionMessage =
    "maximum recursion depth exceeded";

class CallResolver {
public:
  virtual ~CallResolver() = default;

  /// Invokes user function \p Name with \p Args, requesting \p NumOuts
  /// outputs. Throws MatlabError when the function is unknown or fails.
  virtual std::vector<ValuePtr> callFunction(const std::string &Name,
                                             std::vector<ValuePtr> Args,
                                             size_t NumOuts,
                                             SourceLoc Loc) = 0;

  /// True when \p Name resolves to a user function visible to the resolver
  /// (used by dynamic resolution of ambiguous symbols).
  virtual bool knowsFunction(const std::string &Name) = 0;

  /// The number of calls running and its limit. callFunction checks and
  /// raises the depth; a direct self-call, which does not pass through it,
  /// checks and raises the same counter (exec::CallLevel).
  virtual unsigned &callDepth() = 0;
  virtual unsigned maxCallDepth() const = 0;
};

} // namespace majic

#endif // MAJIC_RUNTIME_CALLRESOLVER_H
