//===- backend/Compiler.cpp - Compilation driver --------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/Compiler.h"

#include "obs/Trace.h"
#include "support/FaultInjection.h"

using namespace majic;

std::optional<CompileResult> majic::compileFunction(const CompileRequest &Req) {
  assert(Req.FI && "no function to compile");
  const std::string &FnName = Req.FI->F->name();
  obs::TraceScope CompileSpan("compile", "compile", FnName);
  CompileResult Result;

  // Pass 3: type inference (skipped entirely in mcc-like generic mode,
  // which is the point of that baseline).
  TypeAnnotations Ann;
  {
    obs::TraceScope Span("infer", "compile", FnName);
    Timer T;
    if (Req.Mode != CodeGenMode::Generic) {
      faults::maybeThrow(faults::Site::Infer);
      InferResult Inferred = inferTypes(*Req.FI, Req.Sig, Req.Infer);
      Ann = std::move(Inferred.Ann);
    }
    Result.TypeInferSeconds = T.seconds();
  }

  // Pass 4: code generation, optimization, code selection, register
  // allocation.
  Timer T;
  CodeGenOptions CGOpts;
  CGOpts.Mode = Req.Mode;
  CGOpts.EnableFusion = Req.FuseElementwise;
  CGOpts.Stats = &Result.Fusion;
  std::unique_ptr<IRFunction> Code;
  {
    obs::TraceScope Span("codegen", "compile", FnName);
    faults::maybeThrow(faults::Site::CodeGen);
    Code = generateCode(*Req.FI, Ann, Req.Sig, CGOpts);
  }
  if (!Code)
    return std::nullopt;

  if (Req.Mode == CodeGenMode::Optimized) {
    obs::TraceScope Span("optimize", "compile", FnName);
    OptimizeOptions OptOpts;
    OptOpts.Fusion = &Result.Fusion;
    Result.Optimizer = optimize(*Code, OptOpts);
  }

  // Record the fusion outcome as its own compiler phase span so traces
  // show what the matcher did for this compile (satellite: codegen.fuse).
  {
    const FusionStats &FS = Result.Fusion;
    obs::TraceScope Span("codegen.fuse", "compile",
                         FnName + ": groups=" + std::to_string(FS.Groups) +
                             " ops=" + std::to_string(FS.OpsFused) +
                             " temps=" + std::to_string(FS.TempsElided));
  }

  // Code selection, in every mode: after the optimizer, whose matchers
  // read the register forms.
  selectInstructions(*Code);

  {
    obs::TraceScope Span("regalloc", "compile", FnName);
    faults::maybeThrow(faults::Site::RegAlloc);
    Result.RegAlloc = allocateRegisters(*Code, Req.Platform, Req.RegAlloc);
  }
  Result.CodeGenSeconds = T.seconds();
  Result.Code = std::move(Code);
  Result.Sig = Req.Sig;
  return Result;
}
