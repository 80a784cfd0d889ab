//===- infer/Infer.h - JIT type inference ----------------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The type inference engine (Sections 2.3/2.4): an iterative
/// join-of-all-paths monotone dataflow analysis over the CFG, seeded with a
/// type signature. Produces a conservative type annotation for every
/// expression, plus the facts the code generator consumes:
///
///  - constants (degenerate ranges; Section 2.4 "constant propagation"),
///  - exact shapes (coinciding lower/upper shape bounds),
///  - subscript-safety facts (Section 2.4 "subscript check removal"),
///  - a per-variable storage summary (the join of the variable's types over
///    the whole function, deciding unboxed vs boxed storage).
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_INFER_INFER_H
#define MAJIC_INFER_INFER_H

#include "analysis/Disambiguate.h"
#include "infer/TypeCalculator.h"
#include "types/Signature.h"

#include <unordered_map>
#include <unordered_set>

namespace majic {

/// The result of type inference: S, "one type for each expression node"
/// (Section 2.3), plus derived facts.
struct TypeAnnotations {
  std::unordered_map<const Expr *, Type> ExprTypes;

  /// Index reads proven in-bounds with integral subscripts: the generated
  /// code omits the subscript check (Section 2.4).
  std::unordered_set<const Expr *> SafeSubscripts;

  /// Facts about an indexed assignment statement.
  struct WriteFacts {
    /// Subscripts proven integral and within the array's minimum shape:
    /// neither a bounds/resize check nor a grow path is needed.
    bool InBounds = false;
  };
  std::unordered_map<const Stmt *, WriteFacts> Writes;

  /// The loop variable's element type per for statement.
  std::unordered_map<const ForStmt *, Type> LoopVars;

  /// Join of every type each slot assumes across the function: the storage
  /// class the code generator assigns to the variable.
  std::vector<Type> SlotSummary;

  /// The first output's type under the signature being compiled, as the
  /// self-call fixpoint found it, when that is an int scalar. Every
  /// self-call whose arguments are safe for that signature is annotated
  /// with it; top otherwise.
  Type SelfResult = Type::top();

  Type typeOf(const Expr *E) const {
    auto It = ExprTypes.find(E);
    return It == ExprTypes.end() ? Type::top() : It->second;
  }
  bool subscriptSafe(const Expr *E) const { return SafeSubscripts.count(E); }
  WriteFacts writeFacts(const Stmt *S) const {
    auto It = Writes.find(S);
    return It == Writes.end() ? WriteFacts() : It->second;
  }
};

struct InferResult {
  TypeAnnotations Ann;
  /// The signature inference ran with (becomes the compiled code's
  /// signature in the repository).
  TypeSignature Signature;
};

/// Runs forward (JIT-mode) type inference over \p FI with parameter types
/// \p Sig. \p Sig may have fewer entries than the function has parameters
/// (missing ones are treated as never-assigned).
///
/// A function that calls itself first gets its own output type: a small
/// fixpoint over the un-inlined body (FunctionInfo::Uninlined, else \p FI)
/// in which self-call results start at bottom and ranges widen to top after
/// one step. When that type is an int scalar, the main pass gives it to
/// every self-call whose argument types are safe for \p Sig
/// (TypeSignature::safeFor).
InferResult inferTypes(const FunctionInfo &FI, const TypeSignature &Sig,
                       const InferOptions &Opts = InferOptions());

} // namespace majic

#endif // MAJIC_INFER_INFER_H
