//===- bench/DumpCode.cpp - The code every evaluation configuration compiles ---===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Prints, for each corpus program under each of bench_paper's
// configurations (Harness.h, kConfigs) at bench_paper's arguments, every
// version the repository holds after one call: its register-allocated IR
// text and the C source the native tier would compile from it. Two builds
// whose outputs are byte-identical compile every program alike, which is
// how a change that must not move generated code is checked:
//
//   ./build/bench/dump_code > after.txt && diff before.txt after.txt
//
// Takes no options; MAJIC_BENCH_SCALE scales the arguments as it does for
// bench_paper. Exits non-zero when a program leaves no version behind.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ast/Parser.h"
#include "backend/CEmitter.h"

#include <cstdio>

using namespace majic;
using namespace majic::bench;

namespace {

/// The names \p Spec's file defines: its primary function and subfunctions.
std::vector<std::string> definedFunctions(const BenchmarkSpec &Spec) {
  SourceManager SM;
  Diagnostics Diags;
  std::vector<std::string> Names;
  if (auto Mod = parseModule(Spec.Name, readSource(Spec), SM, Diags))
    for (const auto &Fn : Mod->functions())
      Names.push_back(Fn->name());
  return Names;
}

} // namespace

int main() {
  size_t Versions = 0;
  int Empty = 0;
  for (const BenchmarkSpec &Spec : benchmarkCorpus()) {
    const std::vector<std::string> Names = definedFunctions(Spec);
    size_t ProgramVersions = 0;
    for (const Config &C : kConfigs) {
      Engine E(sessionOptions(C, false));
      loadBenchmark(E, Spec);
      precompile(E, C, Spec);
      E.callFunction(Spec.Name, scaledArgs(Spec), 1, SourceLoc());
      for (const std::string &Name : Names) {
        for (const CompiledObjectPtr &Obj : E.repository().versions(Name)) {
          std::printf("=== %s %s %s %s\n%s--- C\n%s", Spec.Name.c_str(),
                      C.Name, Name.c_str(), Obj->Sig.str().c_str(),
                      Obj->Code->print().c_str(),
                      emitCSource(*Obj->Code, Obj->Sig).c_str());
          ++ProgramVersions;
        }
      }
    }
    if (ProgramVersions == 0) {
      std::fprintf(stderr, "%s: no compiled version\n", Spec.Name.c_str());
      ++Empty;
    }
    Versions += ProgramVersions;
  }
  // Flush the dump first, so the summary follows it when both streams go
  // to one file.
  std::fflush(stdout);
  std::fprintf(stderr, "%zu versions of %zu programs\n", Versions,
               benchmarkCorpus().size());
  return Empty ? 1 : 0;
}
