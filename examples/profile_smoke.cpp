//===- examples/profile_smoke.cpp - Two-session profile-guided smoke -------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Scriptable multi-session smoke check for profile-guided speculation and
// warm starts, used by CI:
//
//   profile_smoke <srcdir> <storedir> cold
//     writes a three-function corpus into <srcdir>, then runs a skewed
//     workload (hotfn called 5x, midfn 2x, coldfn never); teardown
//     persists the profile into <storedir> but no compiled code, so the
//     warm session's store serves nothing and all three functions still
//     need speculation (a function the store serves is not speculated
//     again).
//
//   profile_smoke <srcdir> <storedir> warm
//     a fresh session on the same directories, its compiled code
//     persisted into <storedir>. Asserts, exiting nonzero on any
//     violation:
//       - the persisted profile loaded (not quarantined);
//       - with the worker paused, snoop() queues speculation hot-first:
//         hotfn before midfn before coldfn;
//       - the first invocation of hotfn is served without a foreground
//         (JIT) compile and produces the expected value.
//
//   profile_smoke <srcdir> <storedir> single
//     a third session on the same directories, under the JIT policy:
//     snoop, then one call of hotfn. Asserts that the call parsed one file,
//     read only hotfn's store entries and compiled nothing.
//
//   profile_smoke <srcdir> <storedir> prime
//     writes a two-file corpus into <srcdir>, one of whose files holds a
//     subfunction inlined at its only call site, and runs every function
//     once under the speculative policy: <storedir> then holds code for
//     every function with a profile, and the subfunction has none.
//
//   profile_smoke <srcdir> <storedir> primed
//     a fresh speculative session on the primed directories. Asserts that,
//     with the worker paused, snoop() queues nothing and loads no file
//     (the subfunction does not pull its file in), and that the calls are
//     served from the store without a compile.
//
// Run the warm, single and primed sessions with MAJIC_METRICS=<file> and
// the CI job greps the dumps (`"engine.jit_compiles": 0`, the source loads,
// `"repo.entries_read"` and `"spec.queued"`) as an independent check.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace majic;

namespace {

int fail(const char *Msg) {
  std::fprintf(stderr, "profile_smoke: FAIL: %s\n", Msg);
  return 1;
}

// Self-contained bodies (no cross-function calls), so the invocation
// counts - and therefore the expected queue order - are exactly the
// workload's call counts.
void writeCorpus(const std::string &SrcDir) {
  std::filesystem::create_directories(SrcDir);
  std::ofstream(SrcDir + "/hotfn.m") << "function y = hotfn(n)\n"
                                        "y = 0;\n"
                                        "for k = 1:n\ny = y + k;\nend\n";
  std::ofstream(SrcDir + "/midfn.m") << "function y = midfn(n)\n"
                                        "y = 1;\n"
                                        "for k = 1:n\ny = y * 2;\nend\n";
  std::ofstream(SrcDir + "/coldfn.m") << "function y = coldfn(x)\n"
                                         "y = x * x;\n";
}

EngineOptions options(const std::string &StoreDir) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  O.RepoDir = StoreDir;
  return O;
}

ValuePtr intArg(long N) { return makeValue(Value::intScalar(N)); }

uint64_t counter(Engine &E, const std::string &Name) {
  for (const auto &[N, V] : E.sampleMetrics().Counters)
    if (N == Name)
      return V;
  return 0;
}

int runCold(const std::string &SrcDir, const std::string &StoreDir) {
  writeCorpus(SrcDir);
  EngineOptions O = options(StoreDir);
  O.RepoDir.clear();
  O.ProfileDir = StoreDir;
  Engine E(O);
  E.watchDirectory(SrcDir);
  if (E.snoop() != 3)
    return fail("cold: expected to snoop 3 files");
  E.drainCompiles();

  // The skewed workload the profile must remember.
  for (int I = 0; I != 5; ++I)
    E.callFunction("hotfn", {intArg(10)}, 1, SourceLoc());
  for (int I = 0; I != 2; ++I)
    E.callFunction("midfn", {intArg(4)}, 1, SourceLoc());
  E.drainCompiles();
  E.flushRepoStore();
  std::printf("profile_smoke: cold session done (hotfn x5, midfn x2)\n");
  return 0;
}

int runWarm(const std::string &SrcDir, const std::string &StoreDir) {
  Engine E(options(StoreDir));
  RepoStoreStats St = E.repoStoreStats();
  if (St.ProfilesLoaded == 0)
    return fail("warm: no persisted profiles loaded");
  if (St.ProfilesQuarantined != 0 || St.ProfilesSkewed != 0)
    return fail("warm: profile file was quarantined");

  // Freeze the worker so the ranked queue is observable, then snoop.
  E.pauseBackgroundCompiles();
  E.watchDirectory(SrcDir);
  if (E.snoop() != 3)
    return fail("warm: expected to snoop 3 files");
  std::vector<std::string> Q = E.queuedSpeculations();
  std::printf("profile_smoke: warm speculation queue:");
  for (const std::string &Fn : Q)
    std::printf(" %s", Fn.c_str());
  std::printf("\n");
  if (Q != std::vector<std::string>{"hotfn", "midfn", "coldfn"})
    return fail("warm: queue is not in hot-first profile order");
  E.resumeBackgroundCompiles();
  E.drainCompiles();

  // The call the profile predicted: served from the warm store, no
  // foreground compile.
  auto R = E.callFunction("hotfn", {intArg(10)}, 1, SourceLoc());
  if (R.empty() || R[0]->scalarValue() != 55)
    return fail("warm: hotfn(10) != 55");
  if (E.jitCompiles() != 0)
    return fail("warm: first invocation paid a foreground JIT compile");
  std::printf("profile_smoke: warm session OK (hot-first queue, zero "
              "foreground compiles)\n");
  return 0;
}

int runSingle(const std::string &SrcDir, const std::string &StoreDir) {
  unsigned Entries = 0;
  for (const auto &F : std::filesystem::directory_iterator(StoreDir))
    Entries += F.path().extension() == ".mjo" &&
               F.path().filename().string().rfind("hotfn.", 0) == 0;
  EngineOptions O = options(StoreDir);
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 0;
  Engine E(O);
  E.watchDirectory(SrcDir);
  if (E.snoop() != 3)
    return fail("single: expected to snoop 3 files");
  auto R = E.callFunction("hotfn", {intArg(10)}, 1, SourceLoc());
  if (R.empty() || R[0]->scalarValue() != 55)
    return fail("single: hotfn(10) != 55");
  if (E.jitCompiles() != 0)
    return fail("single: the call paid a JIT compile");
  uint64_t Loads = 0;
  for (const auto &[Name, V] : E.sampleMetrics().Counters)
    if (Name.rfind("engine.source_loads.", 0) == 0)
      Loads += V;
  if (Loads != 1)
    return fail("single: the call loaded more than its own file");
  if (E.repoStoreStats().EntriesRead != Entries)
    return fail("single: the call read entries beyond hotfn's");
  std::printf("profile_smoke: single-call session OK (1 source load, %u "
              "entries read)\n",
              Entries);
  return 0;
}

// sumsq(n) = sum of k^2 for k = 1..n through sq, which the inliner folds
// into its only call site, so sq never runs on its own.
void writePrimedCorpus(const std::string &SrcDir) {
  std::filesystem::create_directories(SrcDir);
  std::ofstream(SrcDir + "/sumsq.m") << "function y = sumsq(n)\n"
                                        "y = 0;\n"
                                        "for k = 1:n\ny = y + sq(k);\nend\n"
                                        "function z = sq(k)\n"
                                        "z = k * k;\n";
  std::ofstream(SrcDir + "/triple.m") << "function y = triple(x)\n"
                                         "y = 3 * x;\n";
}

int runPrime(const std::string &SrcDir, const std::string &StoreDir) {
  writePrimedCorpus(SrcDir);
  Engine E(options(StoreDir));
  E.watchDirectory(SrcDir);
  if (E.snoop() != 2)
    return fail("prime: expected to snoop 2 files");
  E.drainCompiles();
  E.callFunction("sumsq", {intArg(10)}, 1, SourceLoc());
  E.callFunction("triple", {intArg(4)}, 1, SourceLoc());
  E.drainCompiles();
  E.flushRepoStore();
  std::printf("profile_smoke: prime session done (sumsq, triple)\n");
  return 0;
}

int runPrimed(const std::string &SrcDir, const std::string &StoreDir) {
  Engine E(options(StoreDir));
  E.pauseBackgroundCompiles();
  E.watchDirectory(SrcDir);
  if (E.snoop() != 2)
    return fail("primed: expected to snoop 2 files");
  if (!E.queuedSpeculations().empty())
    return fail("primed: snoop queued speculation the store serves");
  if (counter(E, "engine.source_loads.speculate") != 0)
    return fail("primed: snoop loaded a file to speculate");
  E.resumeBackgroundCompiles();
  auto S = E.callFunction("sumsq", {intArg(10)}, 1, SourceLoc());
  auto T = E.callFunction("triple", {intArg(4)}, 1, SourceLoc());
  if (S.empty() || S[0]->scalarValue() != 385 || T.empty() ||
      T[0]->scalarValue() != 12)
    return fail("primed: sumsq(10) != 385 or triple(4) != 12");
  if (E.jitCompiles() != 0)
    return fail("primed: a call paid a JIT compile");
  std::printf("profile_smoke: primed session OK (nothing queued, no "
              "compiles)\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *Mode = Argc == 4 ? Argv[3] : "";
  if (std::strcmp(Mode, "cold") == 0)
    return runCold(Argv[1], Argv[2]);
  if (std::strcmp(Mode, "warm") == 0)
    return runWarm(Argv[1], Argv[2]);
  if (std::strcmp(Mode, "single") == 0)
    return runSingle(Argv[1], Argv[2]);
  if (std::strcmp(Mode, "prime") == 0)
    return runPrime(Argv[1], Argv[2]);
  if (std::strcmp(Mode, "primed") == 0)
    return runPrimed(Argv[1], Argv[2]);
  std::fprintf(stderr, "usage: profile_smoke <srcdir> <storedir> "
                       "cold|warm|single|prime|primed\n");
  return 2;
}
