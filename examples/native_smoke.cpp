//===- examples/native_smoke.cpp - Three-leg native-tier smoke -------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Scriptable smoke check for the native (emitted-C) tier, used by CI:
//
//   native_smoke <storedir> cold
//     runs a hot function, a recursive one (fibonacci) and one that sums
//     rand draws past the promotion threshold against the persistent
//     store in <storedir>.
//     Asserts the system compiler was invoked (native.compiles >= 1), the
//     promoted versions actually served calls (native.hits >= 1) and
//     fibonacci's general version called itself directly in machine code
//     (native.direct_calls >= 1), nothing failed, and the .so payloads
//     were persisted as .mjn files.
//
//   native_smoke <storedir> warm
//     a fresh session on the same store. Asserts the first call of each
//     function is served natively with ZERO compiler invocations and zero
//     foreground JIT compiles - the warm-start contract - that the
//     adopted fibonacci code recurses directly, and that the adopted rand
//     code draws what the interpreter draws. Run with
//     MAJIC_METRICS=metrics.json and the CI job greps
//     `"native.compiles": 0` and a nonzero `"native.direct_calls"` from
//     the dump as an independent check.
//
//   native_smoke <storedir> nocc
//     leaves EngineOptions::NativeCC empty so the MAJIC_NATIVE_CC
//     environment fallback applies; CI sets it to a nonexistent path.
//     Asserts results are still bit-correct via the VM, no native
//     counter moved, and no .mjn was written: a missing compiler
//     degrades silently, it never breaks the session.
//
// Every leg checks the same expected values, so a numeric divergence
// between tiers fails the job too. The rand sum's expected value is not a
// constant: an interpreter-only engine draws it from the same seed, so the
// check holds each tier to the interpreter's draws, bit for bit.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

using namespace majic;

namespace {

int fail(const char *Msg) {
  std::fprintf(stderr, "native_smoke: FAIL: %s\n", Msg);
  return 1;
}

// Enough work per call that a native win is plausible, cheap enough
// that CI barely notices: sum of squares 1..n.
const char *kHotSource = "function y = hotfn(n)\n"
                         "y = 0;\n"
                         "for k = 1:n\n"
                         "y = y + k * k;\n"
                         "end\n";

constexpr long kArg = 100;
constexpr double kExpect = 338350; // sum k^2, k=1..100

// mlib/fibonacci.m: its general version calls itself with an int result.
const char *kRecSource = "function f = fibonacci(n)\n"
                         "if n <= 1\n"
                         "  f = n;\n"
                         "else\n"
                         "  f = fibonacci(n - 1) + fibonacci(n - 2);\n"
                         "end\n";

constexpr long kRecArg = 12;
constexpr double kRecExpect = 144;

// A scalar rand per step: native code draws from the engine's generator.
const char *kRandSource = "function s = randfn(n)\n"
                          "s = 0;\n"
                          "for k = 1:n\n"
                          "s = s + rand;\n"
                          "end\n";

constexpr long kRandArg = 100;
constexpr uint64_t kRandSeed = 2002;

EngineOptions options(const std::string &StoreDir, bool ExplicitCC) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 0; // deterministic counters
  O.RepoDir = StoreDir;
  O.NativeTier = true;
  O.NativeHotThreshold = 2;
  if (ExplicitCC)
    O.NativeCC = "cc";
  return O;
}

size_t countFiles(const std::string &Dir, const char *Ext) {
  size_t N = 0;
  std::error_code Ec;
  for (const auto &E :
       std::filesystem::directory_iterator(Dir, Ec))
    if (E.path().extension() == Ext)
      ++N;
  return N;
}

/// Calls hotfn(kArg) and checks the value; every leg goes through this
/// so VM and native answers are held to the same constant.
bool callChecks(Engine &E) {
  auto R = E.callFunction("hotfn", {makeValue(Value::intScalar(kArg))}, 1,
                          SourceLoc());
  return !R.empty() && R[0]->scalarValue() == kExpect;
}

/// The same for fibonacci(kRecArg).
bool recCallChecks(Engine &E) {
  auto R = E.callFunction("fibonacci",
                          {makeValue(Value::intScalar(kRecArg))}, 1,
                          SourceLoc());
  return !R.empty() && R[0]->scalarValue() == kRecExpect;
}

/// randfn(kRandArg) from kRandSeed.
double randCall(Engine &E) {
  E.context().Rand.reseed(kRandSeed);
  auto R = E.callFunction("randfn", {makeValue(Value::intScalar(kRandArg))},
                          1, SourceLoc());
  return R.empty() ? -1 : R[0]->scalarValue();
}

/// The interpreter's randfn(kRandArg) from kRandSeed. This engine has no
/// store and reads no environment, so it leaves no trace in the leg's.
double interpretedRand() {
  static const double Expect = [] {
    EngineOptions O;
    O.Policy = CompilePolicy::InterpretOnly;
    O.EnvFallbacks = false;
    Engine E(O);
    return E.addSource("randfn", kRandSource) ? randCall(E) : -2;
  }();
  return Expect;
}

/// The same check for randfn: the interpreter's draws, bit for bit.
bool randCallChecks(Engine &E) { return randCall(E) == interpretedRand(); }

bool addSources(Engine &E) {
  return E.addSource("hotfn", kHotSource) &&
         E.addSource("fibonacci", kRecSource) &&
         E.addSource("randfn", kRandSource);
}

int runCold(const std::string &StoreDir) {
  Engine E(options(StoreDir, /*ExplicitCC=*/true));
  if (!E.nativeTierAvailable())
    return fail("cold: system compiler 'cc' not usable");
  if (!addSources(E))
    return fail("cold: addSource rejected the corpus");

  // Threshold is 2: call 1 runs on the VM, call 2 promotes, call 3 reuses.
  // fibonacci's recursive calls promote its general version during call 1.
  for (int I = 0; I != 3; ++I) {
    if (!callChecks(E))
      return fail("cold: hotfn(100) != 338350");
    if (!recCallChecks(E))
      return fail("cold: fibonacci(12) != 144");
    if (!randCallChecks(E))
      return fail("cold: randfn(100) differs from the interpreter's draws");
  }

  if (E.nativeCompiles() < 1)
    return fail("cold: hot function was never promoted to native");
  if (E.nativeHits() < 1)
    return fail("cold: native version never served a call");
  if (E.nativeDirectCalls() < 1)
    return fail("cold: fibonacci never called itself directly");
  if (E.nativeFailures() != 0 || E.nativeDeopts() != 0)
    return fail("cold: native tier reported failures");
  E.flushRepoStore();
  if (countFiles(StoreDir, ".mjn") == 0)
    return fail("cold: no .mjn payload persisted");
  std::printf("native_smoke: cold OK (%llu native compile(s), %llu hit(s), "
              "%llu direct call(s))\n",
              static_cast<unsigned long long>(E.nativeCompiles()),
              static_cast<unsigned long long>(E.nativeHits()),
              static_cast<unsigned long long>(E.nativeDirectCalls()));
  return 0;
}

int runWarm(const std::string &StoreDir) {
  Engine E(options(StoreDir, /*ExplicitCC=*/true));
  RepoStoreStats St = E.repoStoreStats();
  if (St.NativeLoaded == 0)
    return fail("warm: no persisted .mjn payload loaded");
  if (St.NativeQuarantined != 0 || St.NativeSkewed != 0)
    return fail("warm: persisted .mjn payload was rejected");
  if (!addSources(E))
    return fail("warm: addSource rejected the corpus");

  // The warm-start contract: served natively, zero compiler invocations.
  if (!callChecks(E))
    return fail("warm: hotfn(100) != 338350");
  if (E.nativeHits() != 1)
    return fail("warm: first call was not served by the native tier");
  if (!recCallChecks(E))
    return fail("warm: fibonacci(12) != 144");
  if (E.nativeCompiles() != 0)
    return fail("warm: first calls invoked the system compiler");
  if (E.nativeHits() < 3)
    return fail("warm: fibonacci's versions were not served natively");
  if (E.nativeDirectCalls() == 0)
    return fail("warm: adopted fibonacci code did not recurse directly");
  uint64_t Hits = E.nativeHits();
  if (!randCallChecks(E))
    return fail("warm: randfn(100) differs from the interpreter's draws");
  if (E.nativeHits() != Hits + 1)
    return fail("warm: randfn was not served by the native tier");
  if (E.nativeCompiles() != 0)
    return fail("warm: randfn invoked the system compiler");
  if (E.jitCompiles() != 0)
    return fail("warm: first calls paid a foreground JIT compile");
  std::printf("native_smoke: warm OK (native hits, %llu direct call(s), "
              "zero compiler invocations)\n",
              static_cast<unsigned long long>(E.nativeDirectCalls()));
  return 0;
}

int runNoCc(const std::string &StoreDir) {
  // NativeCC left empty: the MAJIC_NATIVE_CC environment fallback
  // applies, and CI points it at a path that does not exist.
  Engine E(options(StoreDir, /*ExplicitCC=*/false));
  if (E.nativeTierAvailable())
    return fail("nocc: expected the native tier to be unavailable");
  if (!addSources(E))
    return fail("nocc: addSource rejected the corpus");

  for (int I = 0; I != 3; ++I) {
    if (!callChecks(E))
      return fail("nocc: hotfn(100) != 338350 on the VM fallback");
    if (!recCallChecks(E))
      return fail("nocc: fibonacci(12) != 144 on the VM fallback");
    if (!randCallChecks(E))
      return fail("nocc: randfn(100) differs from the interpreter's draws");
  }
  if (E.nativeCompiles() != 0 || E.nativeHits() != 0 ||
      E.nativeDirectCalls() != 0)
    return fail("nocc: native counters moved without a compiler");
  E.flushRepoStore();
  if (countFiles(StoreDir, ".mjn") != 0)
    return fail("nocc: wrote a .mjn payload without a compiler");
  std::printf("native_smoke: nocc OK (VM fallback, no native activity)\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3 || (std::strcmp(Argv[2], "cold") != 0 &&
                    std::strcmp(Argv[2], "warm") != 0 &&
                    std::strcmp(Argv[2], "nocc") != 0)) {
    std::fprintf(stderr, "usage: native_smoke <storedir> cold|warm|nocc\n");
    return 2;
  }
  std::filesystem::create_directories(Argv[1]);
  if (std::strcmp(Argv[2], "cold") == 0)
    return runCold(Argv[1]);
  if (std::strcmp(Argv[2], "warm") == 0)
    return runWarm(Argv[1]);
  return runNoCc(Argv[1]);
}
