//===- backend/Compiler.h - Compilation driver -----------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end compilation pipeline (Figure 1, passes 3 and 4): type
/// inference (JIT or with a speculated signature) -> code generation ->
/// [optimizer, for the "native compiler" path] -> code selection
/// (immediates, fused compare-branches) -> linear-scan register
/// allocation. The fast JIT configuration skips the optimizer entirely
/// ("no loop optimizations or instruction scheduling are performed") but
/// not code selection.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_BACKEND_COMPILER_H
#define MAJIC_BACKEND_COMPILER_H

#include "backend/CodeGen.h"
#include "backend/Optimize.h"
#include "backend/Platform.h"
#include "backend/RegAlloc.h"
#include "support/Timer.h"

#include <memory>
#include <optional>

namespace majic {

struct CompileRequest {
  const FunctionInfo *FI = nullptr;
  TypeSignature Sig;
  CodeGenMode Mode = CodeGenMode::Jit;
  PlatformModel Platform;
  InferOptions Infer;
  RegAllocOptions RegAlloc;
  /// Fuse elementwise expression trees into single-pass EwFuse loops.
  bool FuseElementwise = true;
};

struct CompileResult {
  std::shared_ptr<IRFunction> Code;
  TypeSignature Sig;
  double TypeInferSeconds = 0;
  double CodeGenSeconds = 0;
  RegAllocStats RegAlloc;
  OptimizeStats Optimizer;
  FusionStats Fusion;
};

/// Runs the pipeline. Returns nullopt when the function cannot be compiled
/// (ambiguous symbols, unsupported constructs); the caller falls back to
/// the interpreter.
std::optional<CompileResult> compileFunction(const CompileRequest &Req);

} // namespace majic

#endif // MAJIC_BACKEND_COMPILER_H
