//===- backend/CodeGen.h - AST to IR code selection ------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Code selection (Section 2.6): lowers a disambiguated, type-annotated
/// function to the low-level IR. Both code generators "use the same
/// selection rules":
///
///  - scalar arithmetic/logic, elementary math functions and scalar
///    assignments are inlined to single instructions,
///  - scalar and F90-like index operations are inlined, with subscript
///    checks omitted where inference proved them redundant,
///  - small fixed-shape vector operations are fully unrolled, and small
///    real arrays of exact shape live in F registers, one per element:
///    literals, elementwise ops, variables defined only by those, and
///    constant-subscript reads of them never touch a box; any other use
///    materializes the array with NewMat + StoreEl, so a variable with
///    such a use in a loop, or with more of them than definitions, stays
///    boxed,
///  - zeros/ones of scalar sizes allocate directly (NewMat),
///  - a*X+Y / A*x patterns fuse into BLAS calls (Axpy/Gemv),
///  - everything else falls back to the boxed runtime library under the
///    implicit default rule (complex-matrix generic operations).
///
/// Modes:
///  - Jit:       annotations used; the caller runs only register allocation.
///  - Optimized: same selection; the caller additionally runs the
///               "native compiler" optimizer pipeline (speculative/batch).
///  - Generic:   annotations ignored; everything boxed. This reproduces
///               the mcc baseline (the poly4_sig1 code of Figure 3).
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_BACKEND_CODEGEN_H
#define MAJIC_BACKEND_CODEGEN_H

#include "analysis/Disambiguate.h"
#include "infer/Infer.h"
#include "ir/Instr.h"

#include <memory>

namespace majic {

enum class CodeGenMode : uint8_t { Jit, Optimized, Generic };

/// Element-wise operations on exactly-shaped arrays of at most this many
/// elements are fully unrolled (Section 2.6.1: "very effective on small
/// (up to 3x3) matrices").
constexpr unsigned kMaxUnrollNumel = 9;

/// Counters filled by the elementwise-fusion matcher (per compile).
struct FusionStats {
  uint64_t Groups = 0;      ///< EwFuse instructions emitted
  uint64_t OpsFused = 0;    ///< elementwise ops folded into them
  uint64_t TempsElided = 0; ///< intermediate full-size temporaries avoided
};

struct CodeGenOptions {
  CodeGenMode Mode = CodeGenMode::Jit;
  /// Fuse maximal elementwise expression trees into single-pass EwFuse
  /// loops (one loop, one memory pass, zero intermediate temporaries).
  /// Has no effect in Generic mode: fusion legality needs annotations.
  bool EnableFusion = true;
  /// Out-channel: when non-null, fusion statistics accumulate here.
  FusionStats *Stats = nullptr;
};

/// Lowers \p FI with annotations \p Ann. Returns null when the function
/// cannot be compiled (ambiguous symbols, clear statements): the engine
/// then falls back to the interpreter, as the paper prescribes.
std::unique_ptr<IRFunction> generateCode(const FunctionInfo &FI,
                                         const TypeAnnotations &Ann,
                                         const TypeSignature &Sig,
                                         const CodeGenOptions &Opts);

} // namespace majic

#endif // MAJIC_BACKEND_CODEGEN_H
