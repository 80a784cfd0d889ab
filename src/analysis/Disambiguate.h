//===- analysis/Disambiguate.h - Symbol disambiguation ---------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbol disambiguation (Section 2.1): classifies every symbol occurrence
/// as a variable, a builtin primitive, a user function, or ambiguous, using
/// a definite-assignment variant of reaching-definitions analysis over the
/// CFG: "a symbol that has a reaching definition as a variable on *all*
/// paths leading to it must be a variable". Ambiguous occurrences (Figure 2)
/// are deferred to runtime.
///
/// This pass also assigns dense variable slots, builds the static symbol
/// table, and produces the CFG reused by type inference.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_ANALYSIS_DISAMBIGUATE_H
#define MAJIC_ANALYSIS_DISAMBIGUATE_H

#include "analysis/Cfg.h"
#include "ast/AST.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace majic {

/// The static symbol table of one function: the name <-> slot mapping plus
/// per-name classification facts.
class SymbolTable {
public:
  /// Returns the slot of \p Name, creating one if needed.
  int getOrCreateSlot(const std::string &Name);

  /// Returns the slot of \p Name or -1.
  int lookup(const std::string &Name) const;

  const std::string &nameOfSlot(int Slot) const { return Names[Slot]; }
  unsigned numSlots() const { return static_cast<unsigned>(Names.size()); }

private:
  std::unordered_map<std::string, int> SlotOf;
  std::vector<std::string> Names;
};

/// Everything the later passes need about one analyzed function.
struct FunctionInfo {
  Function *F = nullptr;
  Module *M = nullptr;
  std::unique_ptr<CFG> Cfg;
  SymbolTable Symbols;
  /// Names of user functions this function may call (for the repository's
  /// dependency tracking and the inliner).
  std::vector<std::string> Callees;
  /// True when any occurrence was classified Ambiguous; such functions are
  /// interpreted rather than compiled (the paper defers them to runtime).
  bool HasAmbiguousSymbols = false;
  /// Per-slot: definitely assigned on every path reaching the function
  /// exit. The code generator boxes output variables that are not.
  std::vector<bool> DefiniteAtExit;
  /// For the analysis of an inlined clone: the analysis of the function as
  /// written, over which inference finds the function's own output type.
  std::shared_ptr<const FunctionInfo> Uninlined;

  /// True when the function calls itself by name.
  bool callsItself() const;
};

/// Runs disambiguation on \p F (mutating the AST's symbol annotations and
/// the Function's slot bookkeeping) and returns the analysis results.
/// \p Predefined names are treated as variables already defined at entry
/// (the interactive workspace of a script session).
std::unique_ptr<FunctionInfo>
disambiguate(Function &F, Module &M,
             const std::vector<std::string> *Predefined = nullptr);

} // namespace majic

#endif // MAJIC_ANALYSIS_DISAMBIGUATE_H
