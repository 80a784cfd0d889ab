//===- tests/NativeTest.cpp - The native third tier ------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The native execution tier: C emission compiled by the system compiler,
// loaded with dlopen, promoted by hotness, persisted beside the .mjo files,
// and - above all - never able to change a program's results or crash the
// engine, whatever happens to the compiler or the cached shared objects.
//
// Every test that needs a real C compiler probes for one first and skips
// when the host has none; the fallback tests run everywhere.
//
//===----------------------------------------------------------------------===//

#include "analysis/Disambiguate.h"
#include "ast/Parser.h"
#include "backend/CEmitter.h"
#include "backend/Compiler.h"
#include "engine/Corpus.h"
#include "engine/Engine.h"
#include "native/NativeCompiler.h"
#include "repo/RepoStore.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace majic;
namespace fs = std::filesystem;

namespace {

bool hostCompilerAvailable() {
  static const bool Available = native::NativeCompiler("cc").available();
  return Available;
}

//===----------------------------------------------------------------------===//
// Golden corpus sweep: every benchmark's emitted C must survive the real
// compiler at -std=c11 -Wall -Werror and load through the fixed ABI.
//===----------------------------------------------------------------------===//

struct Compiled {
  SourceManager SM;
  Diagnostics Diags;
  std::unique_ptr<Module> Mod;
  std::unique_ptr<FunctionInfo> Info;
  std::unique_ptr<IRFunction> Code;
  TypeSignature Sig;

  Compiled(const std::string &Src, std::vector<Type> Params) {
    Mod = parseModule("t", Src, SM, Diags);
    EXPECT_NE(Mod, nullptr) << Diags.render(SM);
    Info = disambiguate(*Mod->mainFunction(), *Mod);
    Sig = TypeSignature(std::move(Params));
    InferResult R = inferTypes(*Info, Sig);
    CodeGenOptions CG;
    CG.Mode = CodeGenMode::Optimized;
    Code = generateCode(*Info, R.Ann, Sig, CG);
    EXPECT_NE(Code, nullptr);
  }
};

TEST(NativeGolden, EveryCorpusBenchmarkCompilesAndLoads) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  native::NativeCompiler NC("cc");
  for (const BenchmarkSpec &Spec : benchmarkCorpus()) {
    std::ifstream In(mlibDirectory() + "/" + Spec.Name + ".m");
    std::stringstream SS;
    SS << In.rdbuf();
    std::vector<Type> Params;
    for (double A : Spec.Args)
      Params.push_back(A == static_cast<long long>(A)
                           ? Type::scalar(IntrinsicType::Int)
                           : Type::scalar(IntrinsicType::Real));
    Compiled C(SS.str(), std::move(Params));
    std::string Src = emitCSource(*C.Code, C.Sig);
    // -Wall -Werror is part of the compile() invocation: any warning in
    // the emitted C fails this sweep.
    std::vector<uint8_t> So;
    std::unique_ptr<native::NativeModule> Mod;
    try {
      So = NC.compile(Src, Spec.Name);
      Mod = native::NativeCompiler::load(So, Spec.Name, C.Code->NumOuts);
    } catch (MatlabError &ME) {
      FAIL() << Spec.Name << ": " << ME.message();
    }
    EXPECT_GT(So.size(), 0u) << Spec.Name;
    ASSERT_NE(Mod, nullptr) << Spec.Name;
    EXPECT_NE(Mod->entry(), nullptr) << Spec.Name;
    EXPECT_EQ(Mod->numOuts(), C.Code->NumOuts) << Spec.Name;
  }
}

//===----------------------------------------------------------------------===//
// Engine tiering
//===----------------------------------------------------------------------===//

class NativeEngineTest : public ::testing::Test {
protected:
  void SetUp() override {
    faults::reset();
    Dir = fs::temp_directory_path() /
          ("majic_native_" +
           std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(Dir);
  }
  void TearDown() override {
    faults::reset();
    fs::remove_all(Dir);
  }

  /// Deterministic native session: JIT policy, no worker pool (compiles,
  /// saves, and native builds all run synchronously on the engine thread).
  EngineOptions nativeOpts(unsigned HotThreshold = 1) {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.BackgroundCompileThreads = 0;
    O.RepoDir = Dir.string();
    O.NativeTier = true;
    O.NativeHotThreshold = HotThreshold;
    return O;
  }

  std::vector<fs::path> filesWith(const std::string &Ext) {
    std::vector<fs::path> Out;
    if (!fs::exists(Dir))
      return Out;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().extension() == Ext)
        Out.push_back(E.path());
    return Out;
  }

  fs::path Dir;
};

ValuePtr intArg(double X) { return makeValue(Value::intScalar(X)); }

const char *kHotSource = "function y = hot(x)\n"
                         "y = 0;\n"
                         "for k = 1:x\n"
                         "y = y + k * k;\n"
                         "end\n";
const double kHotArg = 10;
const double kHotExpect = 385; // sum of squares 1..10

TEST_F(NativeEngineTest, HotFunctionPromotesAndMatchesVm) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  Engine E(nativeOpts(/*HotThreshold=*/2));
  ASSERT_TRUE(E.addSource("hot", kHotSource));

  // First call: below the hotness threshold, VM only.
  auto R1 = E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R1[0]->scalarValue(), kHotExpect);
  EXPECT_EQ(E.nativeCompiles(), 0u);
  EXPECT_EQ(E.nativeHits(), 0u);

  // Second call crosses the threshold: one native compile, served native,
  // bit-identical answer.
  auto R2 = E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R2[0]->scalarValue(), kHotExpect);
  EXPECT_EQ(E.nativeCompiles(), 1u);
  EXPECT_EQ(E.nativeHits(), 1u);
  EXPECT_EQ(E.nativeFailures(), 0u);
  EXPECT_EQ(E.nativeDeopts(), 0u);

  // Third call reuses the loaded module: still exactly one compile.
  E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_EQ(E.nativeCompiles(), 1u);
  EXPECT_EQ(E.nativeHits(), 2u);

  // The shared object was persisted beside the .mjo.
  EXPECT_EQ(E.repoStoreStats().NativeSaved, 1u);
  EXPECT_EQ(filesWith(".mjn").size(), 1u);

  // The profile records the tier.
  bool Profiled = false;
  for (const obs::FunctionProfile &P : E.profiles())
    if (P.Name == "hot") {
      Profiled = true;
      EXPECT_EQ(P.NativeRuns, 2u);
    }
  EXPECT_TRUE(Profiled);
}

TEST_F(NativeEngineTest, WarmStartRunsNativeWithZeroCompilerInvocations) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  {
    Engine Cold(nativeOpts());
    ASSERT_TRUE(Cold.addSource("hot", kHotSource));
    auto R = Cold.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
    ASSERT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect);
    ASSERT_EQ(Cold.nativeCompiles(), 1u);
    ASSERT_EQ(Cold.repoStoreStats().NativeSaved, 1u);
  }

  Engine Warm(nativeOpts());
  EXPECT_EQ(Warm.repoStoreStats().NativeLoaded, 1u);
  ASSERT_TRUE(Warm.addSource("hot", kHotSource));
  EXPECT_EQ(Warm.nativeFailures(), 0u);

  // First warm call: served native straight from disk - no JIT compile,
  // no C compiler invocation, same answer.
  auto R = Warm.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect);
  EXPECT_EQ(Warm.nativeCompiles(), 0u);
  EXPECT_EQ(Warm.nativeHits(), 1u);
  EXPECT_EQ(Warm.jitCompiles(), 0u);
}

TEST_F(NativeEngineTest, SourceDriftDiscardsNativeEntry) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  {
    Engine Cold(nativeOpts());
    ASSERT_TRUE(Cold.addSource("hot", kHotSource));
    Cold.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
    ASSERT_EQ(Cold.repoStoreStats().NativeSaved, 1u);
  }

  // Changed .m text: the cached .so was compiled from different source and
  // must not run, however valid its bytes.
  Engine Warm(nativeOpts());
  ASSERT_TRUE(Warm.addSource("hot", "function y = hot(x)\ny = x + 1;\n"));
  auto R = Warm.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotArg + 1);
  // The stale module was discarded and the new source compiled fresh.
  EXPECT_EQ(Warm.nativeCompiles(), 1u);
  EXPECT_EQ(Warm.nativeHits(), 1u);
}

TEST_F(NativeEngineTest, TamperedNativeEntryQuarantinedAndRecompiled) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  {
    Engine Cold(nativeOpts());
    ASSERT_TRUE(Cold.addSource("hot", kHotSource));
    Cold.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
    ASSERT_EQ(Cold.repoStoreStats().NativeSaved, 1u);
  }

  // Flip one byte in the middle of the .mjn: the CRC must catch it.
  auto Files = filesWith(".mjn");
  ASSERT_EQ(Files.size(), 1u);
  {
    std::fstream F(Files[0], std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(static_cast<std::streamoff>(fs::file_size(Files[0])) / 2);
    F.put('\xa5');
  }

  Engine Warm(nativeOpts());
  EXPECT_EQ(Warm.repoStoreStats().NativeLoaded, 0u);
  EXPECT_EQ(Warm.repoStoreStats().NativeQuarantined, 1u);
  ASSERT_TRUE(Warm.addSource("hot", kHotSource));
  auto R = Warm.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect);
  // Quarantined, then recompiled natively - the tier self-heals.
  EXPECT_EQ(Warm.nativeCompiles(), 1u);
  EXPECT_FALSE(filesWith(".corrupt").empty());
}

TEST_F(NativeEngineTest, NativeEntryAdoptedWithoutItsMjo) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  {
    Engine Cold(nativeOpts());
    ASSERT_TRUE(Cold.addSource("hot", kHotSource));
    Cold.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
    ASSERT_EQ(Cold.repoStoreStats().NativeSaved, 1u);
  }

  // Flip one byte of the .mjo only: it is quarantined, but the .mjn is
  // valid on its own and must still be adopted.
  auto Mjos = filesWith(".mjo");
  ASSERT_EQ(Mjos.size(), 1u);
  {
    std::fstream F(Mjos[0], std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(static_cast<std::streamoff>(fs::file_size(Mjos[0])) / 2);
    F.put('\xa5');
  }

  Engine Warm(nativeOpts());
  EXPECT_EQ(Warm.repoStoreStats().NativeLoaded, 1u);
  ASSERT_TRUE(Warm.addSource("hot", kHotSource));
  auto R = Warm.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect);
  EXPECT_EQ(Warm.nativeCompiles(), 0u);
  EXPECT_EQ(Warm.nativeHits(), 1u);
}

TEST_F(NativeEngineTest, MissingCompilerFallsBackToVm) {
  // No skip here: this must pass on compiler-less hosts too.
  EngineOptions O = nativeOpts();
  O.NativeCC = "/nonexistent/majic-cc";
  Engine E(O);
  EXPECT_FALSE(E.nativeTierAvailable());
  ASSERT_TRUE(E.addSource("hot", kHotSource));
  for (int I = 0; I != 3; ++I) {
    auto R = E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect);
  }
  EXPECT_EQ(E.nativeCompiles(), 0u);
  EXPECT_EQ(E.nativeHits(), 0u);
  // Nothing bogus persisted either.
  EXPECT_EQ(E.repoStoreStats().NativeSaved, 0u);
  EXPECT_TRUE(filesWith(".mjn").empty());
}

TEST_F(NativeEngineTest, NativeErrorTextMatchesVm) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  const char *Src = "function y = oob(x)\n"
                    "A = zeros(3, 1);\n"
                    "for k = 1:3\nA(k) = k;\nend\n"
                    "y = A(x);\n";

  auto errorText = [&](EngineOptions O) {
    Engine E(std::move(O));
    EXPECT_TRUE(E.addSource("oob", Src));
    // Warm the tier on a valid index first, then trip the bad one.
    E.callFunction("oob", {intArg(2)}, 1, SourceLoc());
    try {
      E.callFunction("oob", {intArg(10)}, 1, SourceLoc());
    } catch (MatlabError &ME) {
      return ME.message();
    }
    return std::string("<no error>");
  };

  EngineOptions Vm;
  Vm.Policy = CompilePolicy::Jit;
  Vm.BackgroundCompileThreads = 0;
  std::string VmMsg = errorText(std::move(Vm));
  std::string NativeMsg = errorText(nativeOpts());
  EXPECT_NE(VmMsg, "<no error>");
  EXPECT_EQ(NativeMsg, VmMsg);
}

TEST_F(NativeEngineTest, OutOfRangeErrorTextIsTheInterpreters) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  const char *Linear = "function r = f(k)\nx = [1 2 3];\nr = x(k);\n";
  const char *TwoD = "function r = f(i, j)\nA = [1 2 3; 4 5 6; 7 8 9];\n"
                     "r = A(i, j);\n";
  struct Case {
    const char *Src;
    std::vector<double> Good, Bad;
  };
  const Case Cases[] = {{Linear, {2}, {7}},       {Linear, {2}, {0}},
                        {TwoD, {2, 2}, {4, 1}},   {TwoD, {2, 2}, {1, 4}},
                        {TwoD, {2, 2}, {4, 4}}};
  auto args = [](const std::vector<double> &Xs) {
    std::vector<ValuePtr> Out;
    for (double X : Xs)
      Out.push_back(intArg(X));
    return Out;
  };
  for (const Case &C : Cases) {
    // A valid read first (promoting f to native where the tier is on),
    // then the bad one.
    auto errorText = [&](EngineOptions O, uint64_t WantHits) {
      fs::remove_all(Dir);
      Engine E(std::move(O));
      EXPECT_TRUE(E.addSource("f", C.Src));
      E.callFunction("f", args(C.Good), 1, SourceLoc());
      EXPECT_EQ(E.nativeHits(), WantHits);
      try {
        E.callFunction("f", args(C.Bad), 1, SourceLoc());
      } catch (MatlabError &ME) {
        return ME.message();
      }
      return std::string("<no error>");
    };
    EngineOptions Interp;
    Interp.Policy = CompilePolicy::InterpretOnly;
    std::string Want = errorText(std::move(Interp), 0);
    EXPECT_NE(Want, "<no error>");
    EXPECT_EQ(errorText(nativeOpts(), 1), Want);
  }
}

TEST_F(NativeEngineTest, InjectedFaultsDegradeToVmSilently) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  for (faults::Site Site : {faults::Site::NativeCompile,
                            faults::Site::NativeLoad, faults::Site::NativeRun}) {
    faults::reset();
    faults::armEvery(Site, 1);
    fs::remove_all(Dir);
    Engine E(nativeOpts());
    ASSERT_TRUE(E.addSource("hot", kHotSource));
    for (int I = 0; I != 3; ++I) {
      auto R = E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
      EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect)
          << faults::siteName(Site);
    }
    // However the fault lands, the answer is right and nothing escapes.
    // The failed version is quarantined, not retried on every call.
    EXPECT_GT(faults::stats(Site).Fired, 0u) << faults::siteName(Site);
    EXPECT_GT(E.nativeFailures() + E.nativeDeopts(), 0u)
        << faults::siteName(Site);
    faults::reset();
  }
}

//===----------------------------------------------------------------------===//
// Calls from one version to another re-enter the engine through the host
// bridge and find their module in a per-object memo; the general version
// then calls itself directly. Quarantine, reload and invalidation must reach
// that memo before the next call.
//===----------------------------------------------------------------------===//

const char *kRecSource = "function r = rec(n)\n"
                         "if n <= 0\n"
                         "  r = 7;\n"
                         "else\n"
                         "  r = rec(n - 1) + 1;\n"
                         "end\n";

/// What one rec(5) call added: native runs entered through the engine, and
/// direct self-calls inside them.
struct RecRun {
  uint64_t Hits, Direct;
  bool operator==(const RecRun &O) const {
    return Hits == O.Hits && Direct == O.Direct;
  }
};
std::ostream &operator<<(std::ostream &OS, const RecRun &R) {
  return OS << "{hits " << R.Hits << ", direct " << R.Direct << "}";
}

/// Native: the top version rec(5) calls the general version once through
/// the host (rec(4)), which makes the four self-calls down to rec(0)
/// directly.
const RecRun kAllNative = {2, 4};
/// The general version quarantined: only the top version runs natively.
const RecRun kTopOnly = {1, 0};

RecRun recHits(Engine &E, double Expect) {
  uint64_t Hits = E.nativeHits(), Direct = E.nativeDirectCalls();
  auto R = E.callFunction("rec", {intArg(5)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), Expect);
  return {E.nativeHits() - Hits, E.nativeDirectCalls() - Direct};
}

TEST_F(NativeEngineTest, QuarantinedModuleLeavesRecursiveCalls) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  EngineOptions O = nativeOpts();
  O.InlineCalls = false; // every level is a real call
  Engine E(O);
  ASSERT_TRUE(E.addSource("rec", kRecSource));
  recHits(E, 12); // promotes rec(5)'s version and the general one
  EXPECT_EQ(recHits(E, 12), kAllNative);
  // Fail the general version's native run: it is quarantined and the call
  // completes on the VM.
  faults::armAt(faults::Site::NativeRun, 2);
  recHits(E, 12);
  faults::reset();
  EXPECT_EQ(E.nativeFailures(), 1u);
  // From now on only the top version runs natively.
  EXPECT_EQ(recHits(E, 12), kTopOnly);
  EXPECT_EQ(recHits(E, 12), kTopOnly);
}

TEST_F(NativeEngineTest, ReloadNeverServesTheOldModule) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  EngineOptions O = nativeOpts();
  O.InlineCalls = false;
  Engine E(O);
  ASSERT_TRUE(E.addSource("rec", kRecSource));
  recHits(E, 12);
  EXPECT_EQ(recHits(E, 12), kAllNative);
  uint64_t Compiles = E.nativeCompiles();

  // Reloading the same text invalidates the function: both versions are
  // compiled and promoted afresh rather than served from the old modules.
  ASSERT_TRUE(E.addSource("rec", kRecSource));
  recHits(E, 12);
  EXPECT_EQ(E.nativeCompiles(), Compiles + 2);
  EXPECT_EQ(recHits(E, 12), kAllNative);

  // New source, new answers, at every depth.
  std::string Changed = kRecSource;
  Changed.replace(Changed.find("r = 7;"), 6, "r = 100;");
  ASSERT_TRUE(E.addSource("rec", Changed));
  recHits(E, 105);
  EXPECT_EQ(recHits(E, 105), kAllNative);
}

TEST_F(NativeEngineTest, BackgroundModuleOfReloadedSourceIsDropped) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  EngineOptions O = nativeOpts();
  O.InlineCalls = false;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  ASSERT_TRUE(E.addSource("rec", kRecSource));
  // The native compiles of the old source wait on the paused pool while
  // the source is reloaded; once they finish they must not settle the new
  // source's versions.
  E.pauseBackgroundCompiles();
  recHits(E, 12);
  std::string Changed = kRecSource;
  Changed.replace(Changed.find("r = 7;"), 6, "r = 100;");
  ASSERT_TRUE(E.addSource("rec", Changed));
  E.resumeBackgroundCompiles();
  E.drainCompiles();
  EXPECT_EQ(recHits(E, 105), (RecRun{0, 0}));
  E.drainCompiles();
  EXPECT_EQ(recHits(E, 105), kAllNative);
}

//===----------------------------------------------------------------------===//
// Direct self-calls: fibonacci's general version recurses inside machine
// code, yet keeps the op budget and interrupts of a call through the host.
//===----------------------------------------------------------------------===//

TEST_F(NativeEngineTest, FibonacciRecursesDirectly) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  for (bool Inline : {true, false}) {
    fs::remove_all(Dir);
    EngineOptions O = nativeOpts();
    O.InlineCalls = Inline;
    Engine E(O);
    ASSERT_TRUE(E.loadFile(mlibDirectory() + "/fibonacci.m"));
    auto R = E.callFunction("fibonacci", {intArg(20)}, 1, SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 6765);
    // The top version <20> calls the general version through the host;
    // everything below recurses inside it.
    uint64_t Hits = E.nativeHits(), Direct = E.nativeDirectCalls();
    R = E.callFunction("fibonacci", {intArg(20)}, 1, SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 6765);
    EXPECT_EQ(E.nativeHits() - Hits, Inline ? 17u : 3u) << Inline;
    // fib(20) makes 21,891 calls; inlining folds three levels of them.
    EXPECT_GT(E.nativeDirectCalls() - Direct, Inline ? 1000u : 20000u)
        << Inline;
    std::string Metrics = E.metricsJson();
    EXPECT_NE(Metrics.find("\"native.direct_calls\""), std::string::npos);
  }
}

TEST_F(NativeEngineTest, FractalStepsMakeNoBoxes) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  // rand is a register draw in machine code, so a hot fractal(3000) run
  // holds a handful of boxes (its argument, the history arrays, the result)
  // and none per step: it held 3,007 when rand was a call by name.
  double Result[2] = {0, 0};
  for (bool Native : {false, true}) {
    fs::remove_all(Dir);
    EngineOptions O = nativeOpts();
    if (!Native)
      O.Policy = CompilePolicy::InterpretOnly;
    O.NativeTier = Native;
    Engine E(O);
    ASSERT_TRUE(E.loadFile(mlibDirectory() + "/fractal.m"));
    E.callFunction("fractal", {intArg(3000)}, 1, SourceLoc());
    uint64_t Hits = E.nativeHits(), Boxes = E.nativeBoxes();
    E.context().Rand.reseed(7);
    auto R = E.callFunction("fractal", {intArg(3000)}, 1, SourceLoc());
    Result[Native] = R[0]->scalarValue();
    if (Native) {
      EXPECT_EQ(E.nativeHits() - Hits, 1u);
      EXPECT_GT(E.nativeBoxes() - Boxes, 0u);
      EXPECT_LE(E.nativeBoxes() - Boxes, 10u);
      EXPECT_NE(E.metricsJson().find("\"native.boxes\""), std::string::npos);
    }
  }
  EXPECT_EQ(Result[1], Result[0]);
}

TEST_F(NativeEngineTest, QmrMakesNoTransposedCopies) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  // A hot native qmr(120, 60) held 1,904 boxes when every A' * q, w' * v
  // and q' * pt first boxed a transposed copy: A' * q now reads A in place
  // and the two vector products return unboxed scalars, so each of the 60
  // iterations makes at least three boxes fewer.
  ValuePtr Result[2];
  for (bool Native : {false, true}) {
    fs::remove_all(Dir);
    EngineOptions O = nativeOpts();
    if (!Native)
      O.Policy = CompilePolicy::InterpretOnly;
    O.NativeTier = Native;
    Engine E(O);
    ASSERT_TRUE(E.loadFile(mlibDirectory() + "/qmr.m"));
    E.callFunction("qmr", {intArg(120), intArg(60)}, 1, SourceLoc());
    uint64_t Hits = E.nativeHits(), Boxes = E.nativeBoxes();
    Result[Native] =
        E.callFunction("qmr", {intArg(120), intArg(60)}, 1, SourceLoc())[0];
    if (Native) {
      EXPECT_EQ(E.nativeHits() - Hits, 1u);
      EXPECT_LE(E.nativeBoxes() - Boxes, 1904u - 3 * 60);
    }
  }
  ASSERT_EQ(Result[0]->numel(), Result[1]->numel());
  EXPECT_EQ(0, std::memcmp(Result[0]->reData(), Result[1]->reData(),
                           Result[0]->numel() * sizeof(double)));
}

TEST_F(NativeEngineTest, DirectRecursionReachesTheDefaultDepthLimit) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  // One typed C frame per level: the default MaxCallDepth (4000) is
  // reachable on the stack, and past it the error is the host path's.
  EngineOptions O = nativeOpts();
  O.InlineCalls = false;
  Engine E(O);
  ASSERT_TRUE(E.addSource("d", "function r = d(n)\n"
                               "if n <= 0\n  r = 0;\n"
                               "else\n  r = d(n - 1) + 1;\nend\n"));
  auto R = E.callFunction("d", {intArg(3990)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 3990);
  // d(3990) enters the general version once; its 3,989 calls below are
  // direct.
  EXPECT_EQ(E.nativeDirectCalls(), 3989u);
  try {
    E.callFunction("d", {intArg(4005)}, 1, SourceLoc());
    ADD_FAILURE() << "d(4005) nested deeper than MaxCallDepth";
  } catch (const MatlabError &Err) {
    EXPECT_EQ(Err.message(), "maximum recursion depth exceeded");
  }
  // The error unwound every direct level: the depth is back at zero.
  R = E.callFunction("d", {intArg(3990)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 3990);
}

TEST_F(NativeEngineTest, DirectRecursionStopsAtTheOpBudget) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  for (bool Native : {true, false}) {
    fs::remove_all(Dir);
    EngineOptions O = nativeOpts();
    O.NativeTier = Native;
    // Machine code counts one op per call and per loop back edge, so it
    // meets a budget later than the VM, which counts instructions.
    O.Limits.MaxOps = 200000;
    Engine E(O);
    ASSERT_TRUE(E.loadFile(mlibDirectory() + "/fibonacci.m"));
    auto R = E.callFunction("fibonacci", {intArg(20)}, 1, SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 6765);
    // fib(30) makes 2.7 million calls; even with three of every four
    // levels inlined, one op per remaining call is over the budget.
    uint64_t Direct = E.nativeDirectCalls();
    try {
      E.callFunction("fibonacci", {intArg(30)}, 1, SourceLoc());
      ADD_FAILURE() << "fibonacci(30) finished within the budget, native="
                    << Native;
    } catch (const MatlabError &Err) {
      EXPECT_EQ(Err.message(), "operation budget exceeded (limit 200000 ops)");
    }
    if (Native) {
      EXPECT_GT(E.nativeDirectCalls() - Direct, 100000u);
    }
  }
}

TEST_F(NativeEngineTest, DirectCallsBetweenPollsAreCharged) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  // Each d(100) makes fewer than 100 direct calls in one native run, fewer
  // than the 256 between polls: the run charges them when it ends, so
  // t(1000) spends about 100,000 ops, over a budget of 50,000, as on the VM.
  for (bool Native : {true, false}) {
    fs::remove_all(Dir);
    EngineOptions O = nativeOpts();
    O.NativeTier = Native;
    O.InlineCalls = false;
    O.Limits.MaxOps = 50000;
    Engine E(O);
    ASSERT_TRUE(E.addSource("d", "function r = d(n)\n"
                                 "if n <= 0\n  r = 0;\n"
                                 "else\n  r = d(n - 1) + 1;\nend\n"));
    ASSERT_TRUE(E.addSource("t", "function s = t(k)\n"
                                 "s = 0;\n"
                                 "for j = 1:k\n  s = s + d(100);\nend\n"));
    auto R = E.callFunction("t", {intArg(2)}, 1, SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 200);
    uint64_t Direct = E.nativeDirectCalls();
    try {
      E.callFunction("t", {intArg(1000)}, 1, SourceLoc());
      ADD_FAILURE() << "t(1000) finished within the budget, native="
                    << Native;
    } catch (const MatlabError &Err) {
      EXPECT_EQ(Err.message(), "operation budget exceeded (limit 50000 ops)");
    }
    if (Native) {
      EXPECT_GT(E.nativeDirectCalls() - Direct, 10000u);
    }
  }
}

TEST_F(NativeEngineTest, DirectRecursionStopsOnInterrupt) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  {
    // Deterministic: f(20) compiled the general version, which then serves
    // f(25) whole, in one native run of direct self-calls. The output sink
    // raises the interrupt at the one f(24) call; only direct self-calls
    // follow, so their poll (every 256 calls) must stop the run.
    EngineOptions O = nativeOpts();
    O.InlineCalls = false;
    Engine E(O);
    ASSERT_TRUE(E.addSource("f", "function r = f(n)\n"
                                 "if n == 24\n  disp(n);\nend\n"
                                 "if n <= 1\n  r = n;\n"
                                 "else\n  r = f(n - 1) + f(n - 2);\nend\n"));
    auto R = E.callFunction("f", {intArg(20)}, 1, SourceLoc());
    ASSERT_DOUBLE_EQ(R[0]->scalarValue(), 6765);
    E.context().setSink([&](const std::string &) { E.requestInterrupt(); });
    uint64_t Direct = E.nativeDirectCalls();
    try {
      E.callFunction("f", {intArg(25)}, 1, SourceLoc());
      ADD_FAILURE() << "f(25) finished after the interrupt";
    } catch (const MatlabError &Err) {
      EXPECT_EQ(Err.message(), "execution interrupted");
    }
    E.context().setSink(nullptr);
    E.clearInterrupt();
    // f(25) makes 242,784 self-calls.
    EXPECT_LE(E.nativeDirectCalls() - Direct, 256u);
  }

  Engine E(nativeOpts());
  ASSERT_TRUE(E.loadFile(mlibDirectory() + "/fibonacci.m"));
  auto R = E.callFunction("fibonacci", {intArg(30)}, 1, SourceLoc());
  ASSERT_DOUBLE_EQ(R[0]->scalarValue(), 832040);
  uint64_t Direct = E.nativeDirectCalls();

  // Another thread interrupts while the native calls run: each call spends
  // nearly all of its time in direct self-calls, so the interrupt lands in
  // one of them within a few calls.
  std::atomic<bool> Stop{false};
  std::thread Interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    E.requestInterrupt();
    while (!Stop.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  std::string Error;
  for (int Call = 0; Call != 2000 && Error.empty(); ++Call) {
    try {
      R = E.callFunction("fibonacci", {intArg(30)}, 1, SourceLoc());
      EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 832040);
    } catch (const MatlabError &Err) {
      Error = Err.message();
    }
  }
  Stop = true;
  Interrupter.join();
  E.clearInterrupt();
  EXPECT_EQ(Error, "execution interrupted");
  EXPECT_GT(E.nativeDirectCalls(), Direct);
  // The engine is intact: depth restored, next call fine.
  R = E.callFunction("fibonacci", {intArg(20)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 6765);
}

TEST_F(NativeEngineTest, DirectCallsFreeTheirBoxes) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  // Every call allocates a 16 KB array. g(22) makes 57,313 calls: were a
  // direct callee's boxes kept until the native run ended, they would hold
  // 900 MB; freed when it returns, the levels still running hold 350 KB,
  // well under the 8 MB limit both tiers run with. In the second source the
  // output is not definitely assigned, so the result comes back boxed too.
  const char *Sources[] = {
      "function r = g(n)\n"
      "v = zeros(1, 2000);\n"
      "if n <= 1\n  r = n;\n"
      "else\n  r = g(n - 1) + g(n - 2) + numel(v) - 2000;\nend\n",
      "function r = g(n)\n"
      "v = zeros(1, 2000);\n"
      "if n <= 1\n  r = n;\nend\n"
      "if n > 1\n  r = g(n - 1) + g(n - 2) + numel(v) - 2000;\nend\n",
  };
  for (const char *Src : Sources) {
    std::string Outcome[2];
    for (bool Native : {false, true}) {
      fs::remove_all(Dir);
      EngineOptions O = nativeOpts();
      if (!Native)
        O.Policy = CompilePolicy::InterpretOnly;
      O.NativeTier = Native;
      O.InlineCalls = false;
      O.Limits.MaxAllocBytes = 8u << 20;
      Engine E(O);
      ASSERT_TRUE(E.addSource("g", Src));
      for (double N : {10.0, 22.0}) {
        try {
          auto R = E.callFunction("g", {intArg(N)}, 1, SourceLoc());
          Outcome[Native] += std::to_string(R[0]->scalarValue()) + " ";
        } catch (const MatlabError &Err) {
          Outcome[Native] += Err.message() + " ";
        }
      }
      if (Native) {
        EXPECT_GT(E.nativeDirectCalls(), 50000u) << Src;
      }
    }
    EXPECT_EQ(Outcome[0], "55.000000 17711.000000 ") << Src;
    EXPECT_EQ(Outcome[1], Outcome[0]) << Src;
  }
}

TEST(CompiledObjectId, NeverReusedAndFollowsTheContent) {
  std::vector<uint64_t> Seen;
  for (int I = 0; I != 4; ++I) {
    CompiledObject Obj;
    Seen.push_back(Obj.Id);
  }
  CompiledObject A;
  A.FunctionName = "f";
  const uint64_t AId = A.Id;
  CompiledObject B(std::move(A));
  EXPECT_EQ(B.Id, AId);
  EXPECT_NE(A.Id, AId); // the husk is a new object
  CompiledObject C;
  C = std::move(B);
  EXPECT_EQ(C.Id, AId);
  EXPECT_NE(B.Id, AId);
  Seen.push_back(A.Id);
  Seen.push_back(B.Id);
  Seen.push_back(C.Id);
  std::sort(Seen.begin(), Seen.end());
  EXPECT_EQ(std::adjacent_find(Seen.begin(), Seen.end()), Seen.end());
}

//===----------------------------------------------------------------------===//
// The .mjn validation ladder, store-level
//===----------------------------------------------------------------------===//

class NativeStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    faults::reset();
    Dir = fs::temp_directory_path() /
          ("majic_mjn_" +
           std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(Dir);
  }
  void TearDown() override {
    faults::reset();
    fs::remove_all(Dir);
  }

  TypeSignature sig() { return TypeSignature({Type::scalar(IntrinsicType::Int)}); }

  /// A store with one saved native entry under stamp extra \p Extra.
  void saveOne(uint64_t Extra, const std::string &So = "\x7f""ELF-not-really") {
    RepoStore S(Dir.string());
    S.setNativeStampExtra(Extra);
    ASSERT_TRUE(S.saveNative("ff", sig(), 1, So, /*SourceHash=*/12345));
  }

  fs::path onlyMjn() {
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().extension() == ".mjn")
        return E.path();
    return {};
  }

  bool anyCorrupt() {
    if (!fs::exists(Dir))
      return false;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().extension() == ".corrupt")
        return true;
    return false;
  }

  fs::path Dir;
};

TEST_F(NativeStoreTest, RoundTrip) {
  saveOne(7, std::string("so-bytes\0with-nul", 17));
  RepoStore S(Dir.string());
  S.setNativeStampExtra(7);
  auto Entries = S.loadAllNative();
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].FunctionName, "ff");
  EXPECT_EQ(Entries[0].NumOuts, 1u);
  EXPECT_EQ(Entries[0].SourceHash, 12345u);
  EXPECT_EQ(Entries[0].SoBytes, std::string("so-bytes\0with-nul", 17));
  EXPECT_EQ(S.stats().NativeLoaded, 1u);
}

TEST_F(NativeStoreTest, SharedWritableDirRefusesNativePayloads) {
  saveOne(7);
  // A group- or world-writable store directory means CRC-valid bytes could
  // have been planted by another user; dlopen'ing them would be code
  // execution, so both native save and native load must refuse. The .mjn
  // file is left untouched (it may be legitimate - just unprovable).
  fs::permissions(Dir, fs::perms::owner_all | fs::perms::group_all |
                           fs::perms::others_read | fs::perms::others_exec);
  {
    RepoStore S(Dir.string());
    S.setNativeStampExtra(7);
    EXPECT_FALSE(S.nativeTrusted());
    EXPECT_TRUE(S.loadAllNative().empty());
    EXPECT_EQ(S.stats().NativeUntrusted, 1u);
    EXPECT_EQ(S.stats().NativeLoaded, 0u);
    EXPECT_EQ(S.stats().NativeQuarantined, 0u);
    EXPECT_FALSE(S.saveNative("gg", sig(), 1, "bytes", 1));
    EXPECT_FALSE(anyCorrupt());
    EXPECT_FALSE(onlyMjn().empty());
  }
  // Tightening the permissions restores the tier: same bytes, now loadable.
  fs::permissions(Dir, fs::perms::owner_all);
  RepoStore S(Dir.string());
  S.setNativeStampExtra(7);
  EXPECT_TRUE(S.nativeTrusted());
  EXPECT_EQ(S.loadAllNative().size(), 1u);
}

TEST_F(NativeStoreTest, EraseNativeLeavesMjoAlone) {
  saveOne(7);
  fs::create_directories(Dir);
  std::ofstream(Dir / "ff.deadbeef.mjo") << "unrelated payload kind";
  RepoStore S(Dir.string());
  S.eraseNative("ff");
  EXPECT_TRUE(onlyMjn().empty());
  EXPECT_TRUE(fs::exists(Dir / "ff.deadbeef.mjo"));
}

TEST_F(NativeStoreTest, SaveFaultFailsSoft) {
  RepoStore S(Dir.string());
  S.setNativeStampExtra(7);
  faults::armEvery(faults::Site::RepoSave, 1);
  EXPECT_FALSE(S.saveNative("ff", sig(), 1, "so", 1));
  faults::reset();
  EXPECT_EQ(S.stats().NativeSaveFailures, 1u);
  EXPECT_TRUE(onlyMjn().empty());
}

} // namespace
