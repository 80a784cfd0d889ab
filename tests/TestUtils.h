//===- tests/TestUtils.h - Shared test harness -----------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers to parse, disambiguate and interpret snippets inside tests,
/// before the full engine exists in a given test's dependency set.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_TESTS_TESTUTILS_H
#define MAJIC_TESTS_TESTUTILS_H

#include "analysis/Disambiguate.h"
#include "ast/Parser.h"
#include "interp/Interpreter.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

namespace majic {
namespace test {

/// A parsed + disambiguated module with an interpreter-backed resolver for
/// its subfunctions.
class TestProgram : public CallResolver {
public:
  explicit TestProgram(const std::string &Source,
                       const std::string &Name = "test") {
    Mod = parseModule(Name, Source, SM, Diags);
    if (!Mod) {
      ADD_FAILURE() << "parse failed:\n" << Diags.render(SM);
      return;
    }
    for (const auto &F : Mod->functions())
      Infos[F->name()] = disambiguate(*F, *Mod);
  }

  bool ok() const { return Mod != nullptr; }
  Module &module() { return *Mod; }
  Context &context() { return Ctx; }
  FunctionInfo *info(const std::string &Name) {
    auto It = Infos.find(Name);
    return It == Infos.end() ? nullptr : It->second.get();
  }

  /// Runs the module's main function with \p Args.
  std::vector<ValuePtr> run(std::vector<ValuePtr> Args = {},
                            size_t NumOuts = 0) {
    Interpreter Interp(Ctx, *this);
    Function *Main = Mod->mainFunction();
    if (Main->isScript()) {
      std::vector<ValuePtr> Workspace;
      Interp.runScript(*Main, Workspace);
      LastWorkspace = std::move(Workspace);
      return {};
    }
    return Interp.run(*Main, std::move(Args), NumOuts);
  }

  /// The value of script variable \p Name after run(), or null.
  ValuePtr scriptVar(const std::string &Name) {
    FunctionInfo *I = info(Mod->mainFunction()->name());
    if (!I)
      return nullptr;
    int Slot = I->Symbols.lookup(Name);
    if (Slot < 0 || static_cast<size_t>(Slot) >= LastWorkspace.size())
      return nullptr;
    return LastWorkspace[Slot];
  }

  // CallResolver: interpret subfunctions.
  std::vector<ValuePtr> callFunction(const std::string &Name,
                                     std::vector<ValuePtr> Args,
                                     size_t NumOuts, SourceLoc Loc) override {
    Function *F = Mod->findFunction(Name);
    if (!F)
      throw MatlabError("undefined function '" + Name + "'", Loc);
    Interpreter Interp(Ctx, *this);
    return Interp.run(*F, std::move(Args), NumOuts);
  }

  bool knowsFunction(const std::string &Name) override {
    return Mod->findFunction(Name) != nullptr;
  }

  unsigned &callDepth() override { return Depth; }
  unsigned maxCallDepth() const override { return 4000; }

  SourceManager SM;
  Diagnostics Diags;

private:
  std::unique_ptr<Module> Mod;
  Context Ctx;
  std::map<std::string, std::unique_ptr<FunctionInfo>> Infos;
  std::vector<ValuePtr> LastWorkspace;
  unsigned Depth = 0;
};

/// Runs \p Source as a script and returns the double value of variable
/// \p Var afterwards.
inline double scriptResult(const std::string &Source, const std::string &Var) {
  TestProgram P(Source);
  if (!P.ok())
    return std::numeric_limits<double>::quiet_NaN();
  P.run();
  ValuePtr V = P.scriptVar(Var);
  if (!V) {
    ADD_FAILURE() << "variable '" << Var << "' not set";
    return std::numeric_limits<double>::quiet_NaN();
  }
  return V->scalarValue();
}

/// Runs \p Source as a script and returns everything it printed.
inline std::string scriptOutput(const std::string &Source) {
  TestProgram P(Source);
  if (!P.ok())
    return "<parse error>";
  P.run();
  return P.context().output();
}

} // namespace test
} // namespace majic

#endif // MAJIC_TESTS_TESTUTILS_H
