//===- tests/FuzzTest.cpp - Randomized differential soundness -----------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property-based testing of the core soundness invariant: a randomly
// generated MATLAB program behaves identically (results, output, errors)
// under the interpreter and under every compiled configuration. Programs
// are drawn from a grammar over scalars, rand, a vector, loops, branches,
// indexing and builtins; all loops are bounded so every program terminates.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "obs/Metrics.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

using namespace majic;

namespace {

/// A tiny seeded program generator.
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : R(Seed), Leaves(~Seed) {}

  std::string generate() {
    Src = "function out = fuzz(n)\n"
          "a = n + 1;\n"
          "b = 3;\n"
          "c = 0.5;\n"
          "v = zeros(1, 8);\n"
          "for k = 1:8\n"
          "v(k) = k * 2;\n"
          "end\n";
    unsigned NumStmts = 3 + pick(6);
    for (unsigned S = 0; S != NumStmts; ++S)
      statement(1);
    Src += "out = a + b + c + sum(v);\n";
    return Src;
  }

private:
  unsigned pick(unsigned N) { return static_cast<unsigned>(R.nextU64() % N); }
  double num() {
    static const double Pool[] = {0, 1, 2, 3, 0.5, -1, -2.5, 7, 10};
    return Pool[pick(sizeof(Pool) / sizeof(Pool[0]))];
  }
  std::string scalarVar() {
    static const char *Vars[] = {"a", "b", "c"};
    return Vars[pick(3)];
  }

  std::string scalarExpr(unsigned Depth) {
    switch (Depth > 2 ? pick(3) : pick(8)) {
    case 0: {
      // Now and then a scalar rand in place of a variable: every tier must
      // draw in the interpreter's order. The choice comes from its own
      // stream, so R draws what it did before rand leaves were added.
      std::string V = scalarVar();
      return Leaves.nextU64() % 4 == 0 ? "rand" : V;
    }
    case 1: {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%g", num());
      return Buf;
    }
    case 2:
      return "v(" + indexExpr() + ")";
    case 3: {
      static const char *Ops[] = {" + ", " - ", " * "};
      return "(" + scalarExpr(Depth + 1) + Ops[pick(3)] +
             scalarExpr(Depth + 1) + ")";
    }
    case 4: {
      // Division keeps denominators away from zero.
      return "(" + scalarExpr(Depth + 1) + " / (abs(" +
             scalarExpr(Depth + 1) + ") + 1))";
    }
    case 5: {
      static const char *Fns[] = {"abs", "floor", "cos", "exp"};
      std::string Fn = Fns[pick(4)];
      if (Fn == "exp")
        return "exp(-abs(" + scalarExpr(Depth + 1) + "))";
      return Fn + "(" + scalarExpr(Depth + 1) + ")";
    }
    case 6:
      return "sqrt(abs(" + scalarExpr(Depth + 1) + "))";
    default:
      return "mod(" + scalarExpr(Depth + 1) + ", 5)";
    }
  }

  /// An index expression guaranteed in [1, 8].
  std::string indexExpr() {
    switch (pick(3)) {
    case 0:
      return std::to_string(1 + pick(8));
    case 1:
      return "k"; // only used inside the k loops below
    default:
      return "mod(floor(abs(" + scalarExpr(3) + ")), 8) + 1";
    }
  }

  /// An index valid outside loops.
  std::string indexExprNoK() {
    if (pick(2))
      return std::to_string(1 + pick(8));
    return "mod(floor(abs(" + scalarExpr(3) + ")), 8) + 1";
  }

  void statement(unsigned Depth) {
    switch (Depth > 2 ? pick(3) : pick(7)) {
    case 0:
      Src += scalarVar() + " = " + scalarExpr(1) + ";\n";
      return;
    case 1:
      Src += "v(" + indexExprNoK() + ") = " + scalarExpr(1) + ";\n";
      return;
    case 2:
      Src += scalarVar() + " = v(" + indexExprNoK() + ") + " +
             scalarExpr(2) + ";\n";
      return;
    case 3: {
      Src += "if " + scalarExpr(2) + " > " + scalarExpr(2) + "\n";
      statement(Depth + 1);
      if (pick(2)) {
        Src += "else\n";
        statement(Depth + 1);
      }
      Src += "end\n";
      return;
    }
    case 4: {
      // Bounded counted loop using k; k-based indexing is in range.
      Src += "for k = 1:" + std::to_string(2 + pick(7)) + "\n";
      statement(Depth + 1);
      if (pick(2))
        Src += "v(k) = v(k) + " + scalarExpr(3) + ";\n";
      Src += "end\n";
      return;
    }
    case 5: {
      // Bounded while with an explicit counter.
      std::string Cnt = "w" + std::to_string(Counter++);
      Src += Cnt + " = 0;\n";
      Src += "while " + Cnt + " < " + std::to_string(1 + pick(5)) + "\n";
      Src += Cnt + " = " + Cnt + " + 1;\n";
      statement(Depth + 1);
      Src += "end\n";
      return;
    }
    default: {
      Src += scalarVar() + " = max(" + scalarExpr(2) + ", " +
             scalarExpr(2) + ") + min(v);\n";
      return;
    }
    }
  }

  Rng R;
  Rng Leaves;
  std::string Src;
  unsigned Counter = 0;
};

/// Every call starts from the same generator state, so the rand draws of a
/// session's repeated calls match the reference's single call.
void resetDraws(Engine &E) { E.context().Rand.reseed(20020617); }

struct Outcome {
  bool Threw = false;
  std::string Error;
  double Result = 0;
  std::string Output;
};

Outcome runFuzz(const std::string &Src, EngineOptions Opts, double Arg) {
  Engine E(Opts);
  Outcome Out;
  if (!E.addSource("fuzz", Src)) {
    Out.Threw = true;
    Out.Error = "parse: " + E.diagnostics();
    return Out;
  }
  try {
    resetDraws(E);
    auto R = E.callFunction("fuzz", {makeValue(Value::intScalar(Arg))}, 1,
                            SourceLoc());
    Out.Result = R[0]->scalarValue();
  } catch (const MatlabError &Err) {
    Out.Threw = true;
    Out.Error = Err.message();
  }
  Out.Output = E.context().output();
  return Out;
}

class FuzzSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSoundness, AllPathsAgree) {
  ProgramGen Gen(GetParam());
  std::string Src = Gen.generate();

  EngineOptions Interp;
  Interp.Policy = CompilePolicy::InterpretOnly;
  Outcome Ref = runFuzz(Src, Interp, 5);

  struct Cfg {
    const char *Name;
    CompilePolicy Policy;
    bool SpillAll;
    bool Ranges;
  };
  const Cfg Configs[] = {
      {"jit", CompilePolicy::Jit, false, true},
      {"falcon", CompilePolicy::Falcon, false, true},
      {"mcc", CompilePolicy::Mcc, false, true},
      {"jit-noranges", CompilePolicy::Jit, false, false},
      {"jit-spillall", CompilePolicy::Jit, true, true},
  };
  for (const Cfg &C : Configs) {
    EngineOptions O;
    O.Policy = C.Policy;
    O.RegAlloc.SpillEverything = C.SpillAll;
    O.Infer.EnableRanges = C.Ranges;
    Outcome Got = runFuzz(Src, O, 5);
    ASSERT_EQ(Ref.Threw, Got.Threw)
        << C.Name << " error='" << Got.Error << "' vs ref='" << Ref.Error
        << "'\nprogram:\n"
        << Src;
    if (!Ref.Threw) {
      if (std::isnan(Ref.Result))
        EXPECT_TRUE(std::isnan(Got.Result)) << C.Name << "\n" << Src;
      else
        EXPECT_DOUBLE_EQ(Ref.Result, Got.Result) << C.Name << "\n" << Src;
    }
    EXPECT_EQ(Ref.Output, Got.Output) << C.Name << "\n" << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSoundness,
                         ::testing::Range<uint64_t>(1, 41));

//===----------------------------------------------------------------------===//
// Native-tier soundness: the same generated programs, executed as machine
// code through the third tier (hot threshold 1: the first call already
// compiles, loads and runs native), must agree with the interpreter
// bit-for-bit - results, error text, and printed output. Gated off under
// TSan: dlopen of the uninstrumented generated .so is incompatible with
// the runtime.
//===----------------------------------------------------------------------===//

#ifndef __SANITIZE_THREAD__

bool nativeHostCompilerAvailable() {
  static const bool Available = native::NativeCompiler("cc").available();
  return Available;
}

class NativeSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NativeSoundness, MachineCodeAgreesWithInterpreter) {
  if (!nativeHostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  ProgramGen Gen(GetParam());
  std::string Src = Gen.generate();

  EngineOptions Interp;
  Interp.Policy = CompilePolicy::InterpretOnly;
  Outcome Ref = runFuzz(Src, Interp, 5);

  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 0;
  O.NativeTier = true;
  O.NativeHotThreshold = 1;
  Outcome Got = runFuzz(Src, O, 5);
  ASSERT_EQ(Ref.Threw, Got.Threw)
      << "error='" << Got.Error << "' vs ref='" << Ref.Error
      << "'\nprogram:\n"
      << Src;
  if (Ref.Threw) {
    EXPECT_EQ(Ref.Error, Got.Error) << Src;
  } else if (std::isnan(Ref.Result)) {
    EXPECT_TRUE(std::isnan(Got.Result)) << Src;
  } else {
    EXPECT_DOUBLE_EQ(Ref.Result, Got.Result) << Src;
  }
  EXPECT_EQ(Ref.Output, Got.Output) << Src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeSoundness,
                         ::testing::Range<uint64_t>(1, 21));

#endif // !__SANITIZE_THREAD__

//===----------------------------------------------------------------------===//
// Fault-schedule sweep: under an arbitrary seeded injection schedule the
// engine never crashes, a call that completes returns the interpreter's
// answer, and once the faults clear (and the source is reloaded, lifting
// any quarantine) behavior is exactly the reference again. The engines run
// against a persistent store so the repo-save and repo-load sites are part
// of every schedule: a second session starts under the same schedule (its
// warm-start load may be denied or quarantined), and the recovery session
// warm-starts from whatever survived.
//===----------------------------------------------------------------------===//

class FaultSweep : public ::testing::TestWithParam<uint64_t> {
protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override { faults::reset(); }
};

TEST_P(FaultSweep, EngineSurvivesScheduleAndRecovers) {
  uint64_t Seed = GetParam();
  ProgramGen Gen(Seed);
  std::string Src = Gen.generate();

  EngineOptions InterpOpts;
  InterpOpts.Policy = CompilePolicy::InterpretOnly;
  Outcome Ref = runFuzz(Src, InterpOpts, 5);

  // Derive a schedule from the seed: each site independently stays off,
  // fires once at a random hit, or fires randomly at 20%.
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0xda3e39cb94b95bdbull);
  for (unsigned SI = 0; SI != faults::kNumSites; ++SI) {
    auto S = static_cast<faults::Site>(SI);
    switch (R.nextU64() % 3) {
    case 0:
      break;
    case 1:
      faults::armAt(S, 1 + R.nextU64() % 20);
      break;
    default:
      faults::armRandom(S, 0.2, R.nextU64());
      break;
    }
  }

  namespace fs = std::filesystem;
  fs::path StoreDir =
      fs::temp_directory_path() / ("majic_faultsweep_" + std::to_string(Seed));
  fs::remove_all(StoreDir);

  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  O.RepoDir = StoreDir.string();

  // Under injection a load may fail (parse fault) and a call may fail
  // (injected OOM); neither may crash, and a call that succeeds must
  // return the reference result - faults deny work, they never corrupt it.
  // Two sessions run under the schedule: the second warm-starts from
  // whatever the first managed to persist, with repo-load faults live.
  for (int Session = 0; Session != 2; ++Session) {
    Engine E(O);
    if (!E.addSource("fuzz", Src))
      continue;
    for (int I = 0; I != 6; ++I) {
      E.speculateAsync("fuzz");
      try {
        resetDraws(E);
        auto Got = E.callFunction("fuzz", {makeValue(Value::intScalar(5))}, 1,
                                  SourceLoc());
        if (!Ref.Threw) {
          if (std::isnan(Ref.Result))
            EXPECT_TRUE(std::isnan(Got[0]->scalarValue())) << Src;
          else
            EXPECT_DOUBLE_EQ(Ref.Result, Got[0]->scalarValue()) << Src;
        }
      } catch (const MatlabError &) {
        // Injected denial (out of memory, ...): recoverable by contract.
      }
    }
    E.drainCompiles();
    E.flushRepoStore();
    if (Session == 1) {
      // The sweep's observability contract: after the workers quiesce, the
      // engine's sampled "faults.*" gauges report exactly the per-site
      // hit/fired counts the injector saw, so a sweep run can tell which
      // sites its schedule actually exercised.
      obs::MetricsSnapshot Snap = E.sampleMetrics();
      auto GaugeOf = [&Snap](const std::string &Name) -> int64_t {
        for (const auto &[N, V] : Snap.Gauges)
          if (N == Name)
            return V;
        return -1;
      };
      std::string FiredSummary;
      for (unsigned SI = 0; SI != faults::kNumSites; ++SI) {
        auto S = static_cast<faults::Site>(SI);
        faults::SiteStats FS = faults::stats(S);
        std::string Base = std::string("faults.") + faults::siteName(S);
        EXPECT_EQ(GaugeOf(Base + ".hits"), int64_t(FS.Hits)) << Base;
        EXPECT_EQ(GaugeOf(Base + ".fired"), int64_t(FS.Fired)) << Base;
        if (FS.Fired)
          FiredSummary += (FiredSummary.empty() ? "" : ", ") +
                          std::string(faults::siteName(S)) + "=" +
                          std::to_string(FS.Fired);
      }
      if (!FiredSummary.empty())
        std::printf("  [seed %llu] fired sites: %s\n",
                    static_cast<unsigned long long>(Seed),
                    FiredSummary.c_str());
    }
  }

  // Faults clear. A fresh session warm-starts from whatever the faulted
  // sessions left on disk - possibly nothing, never anything harmful - and
  // must agree with the reference exactly.
  faults::reset();
  Outcome Got;
  Engine E(O);
  ASSERT_TRUE(E.addSource("fuzz", Src)) << E.diagnostics();
  EXPECT_EQ(E.quarantineCount(), 0u);

  try {
    resetDraws(E);
    auto Res = E.callFunction("fuzz", {makeValue(Value::intScalar(5))}, 1,
                              SourceLoc());
    Got.Result = Res[0]->scalarValue();
  } catch (const MatlabError &Err) {
    Got.Threw = true;
    Got.Error = Err.message();
  }
  // shutdown() quiesces the background store writes (cancelling queued
  // saves, waiting out running ones), so the directory can be removed
  // with the engine still in scope - the scoped-block workaround this
  // test used to need is exactly the race shutdown() closes.
  E.shutdown();
  ASSERT_EQ(Ref.Threw, Got.Threw)
      << "error='" << Got.Error << "' vs ref='" << Ref.Error
      << "'\nprogram:\n"
      << Src;
  if (!Ref.Threw) {
    if (std::isnan(Ref.Result))
      EXPECT_TRUE(std::isnan(Got.Result)) << Src;
    else
      EXPECT_DOUBLE_EQ(Ref.Result, Got.Result) << Src;
  }
  fs::remove_all(StoreDir);
}

INSTANTIATE_TEST_SUITE_P(Schedules, FaultSweep,
                         ::testing::Range<uint64_t>(1, 56));

//===----------------------------------------------------------------------===//
// Native-tier fault sweep: with the third tier promoted on the very first
// call and the native sites firing (compile rejected, loader refused, the
// machine code itself failing mid-run), every call still returns exactly
// the interpreter's answer - native faults degrade the tier, they never
// deny or corrupt a result. Gated off under TSan: dlopen of the
// uninstrumented generated .so is incompatible with the runtime.
//===----------------------------------------------------------------------===//

#ifndef __SANITIZE_THREAD__

class NativeFaultSweep : public ::testing::TestWithParam<uint64_t> {
protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override { faults::reset(); }
};

TEST_P(NativeFaultSweep, TierDegradesWithoutChangingResults) {
  if (!native::NativeCompiler("cc").available())
    GTEST_SKIP() << "no C compiler on host";
  uint64_t Seed = GetParam();
  ProgramGen Gen(Seed);
  std::string Src = Gen.generate();

  EngineOptions InterpOpts;
  InterpOpts.Policy = CompilePolicy::InterpretOnly;
  Outcome Ref = runFuzz(Src, InterpOpts, 5);

  namespace fs = std::filesystem;
  fs::path StoreDir = fs::temp_directory_path() /
                      ("majic_nativesweep_" + std::to_string(Seed));
  fs::remove_all(StoreDir);

  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 0; // native builds run synchronously
  O.RepoDir = StoreDir.string();
  O.NativeTier = true;
  O.NativeHotThreshold = 1;

  // Derive a schedule over the three native sites from the seed: each
  // independently stays off, fires once, or fires at 50%.
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  for (faults::Site S : {faults::Site::NativeCompile, faults::Site::NativeLoad,
                         faults::Site::NativeRun}) {
    switch (R.nextU64() % 3) {
    case 0:
      break;
    case 1:
      faults::armAt(S, 1 + R.nextU64() % 4);
      break;
    default:
      faults::armRandom(S, 0.5, R.nextU64());
      break;
    }
  }

  // Two sessions share the store, so the second exercises native warm
  // adoption under the same schedule. Native faults are invisible in the
  // results: no call may fail or drift from the reference.
  auto CheckCall = [&](Engine &E) {
    try {
      resetDraws(E);
      auto Got = E.callFunction("fuzz", {makeValue(Value::intScalar(5))}, 1,
                                SourceLoc());
      EXPECT_FALSE(Ref.Threw) << Src;
      if (!Ref.Threw) {
        if (std::isnan(Ref.Result)) {
          EXPECT_TRUE(std::isnan(Got[0]->scalarValue())) << Src;
        } else {
          EXPECT_DOUBLE_EQ(Ref.Result, Got[0]->scalarValue()) << Src;
        }
      }
    } catch (const MatlabError &Err) {
      EXPECT_TRUE(Ref.Threw) << Src;
      if (Ref.Threw) {
        EXPECT_EQ(Ref.Error, Err.message()) << Src;
      }
    }
  };
  for (int Session = 0; Session != 2; ++Session) {
    Engine E(O);
    ASSERT_TRUE(E.addSource("fuzz", Src)) << E.diagnostics();
    for (int I = 0; I != 4; ++I)
      CheckCall(E);
    E.flushRepoStore();
    E.shutdown();
  }

  // Faults clear: a fresh session warm-starts from whatever survived and
  // still agrees exactly, with the tier healthy again.
  faults::reset();
  Engine E(O);
  ASSERT_TRUE(E.addSource("fuzz", Src)) << E.diagnostics();
  for (int I = 0; I != 2; ++I)
    CheckCall(E);
  E.shutdown();
  fs::remove_all(StoreDir);
}

INSTANTIATE_TEST_SUITE_P(Schedules, NativeFaultSweep,
                         ::testing::Range<uint64_t>(1, 13));

#endif // !__SANITIZE_THREAD__

//===----------------------------------------------------------------------===//
// Elementwise-fusion fuzz: random elementwise expression trees over
// matrices with NaN/Inf elements, empty matrices, int/real operands and
// scalar<->matrix broadcasts must produce BIT-identical values under the
// interpreter and under every compiled configuration, at 1 and at 4
// compute threads (the fused kernel's determinism contract), with
// identical error messages and printed output. Trees deliberately exceed
// the fusion stack depth sometimes (partial fusion), hit the complex/
// domain deopt guards (x.^y with negative base, sqrt/log of negatives),
// and mix in dimension mismatches so error ordering is exercised too.
//===----------------------------------------------------------------------===//

/// Generates one function whose body is a chain of elementwise statements
/// and whose single output is a matrix.
class EwTreeGen {
public:
  explicit EwTreeGen(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    Rows = 1 + pick(3);
    Cols = 1 + pick(4);
    Src = "function out = ewfuzz(n)\n";
    // q = NaN, w = Inf, computed so no special literals are needed.
    Src += "q = 0 / 0;\nw = 1 / 0;\n";
    Src += "X = " + matrixLit(true) + ";\n";
    Src += "Y = " + matrixLit(true) + ";\n";
    Src += "Z = " + matrixLit(false) + ";\n";
    Src += "K = ones(" + std::to_string(Rows) + ", " + std::to_string(Cols) +
           ");\n"; // int-classed matrix
    Src += "K = K + K + K;\n";
    Src += "s = 2.5;\nt = -1.25;\nu = 3;\n";
    if (pick(4) == 0) {
      // An empty-matrix round: elementwise chains over 0xN values.
      Src += "E = zeros(0, " + std::to_string(Cols) + ");\n";
      Src += "r0 = E + E .* 2 - E ./ 4;\n";
    }
    unsigned NumStmts = 1 + pick(3);
    for (unsigned S = 0; S != NumStmts; ++S)
      Src += "r" + std::to_string(S + 1) + " = " + expr(0) + ";\n";
    if (pick(6) == 0) // dimension-mismatch round: error text must match
      Src += "bad = X + ones(" + std::to_string(Rows + 1) + ", " +
             std::to_string(Cols) + ");\ndisp(bad);\n";
    Src += "out = r" + std::to_string(NumStmts) + ";\n";
    return Src;
  }

private:
  unsigned pick(unsigned N) { return static_cast<unsigned>(R.nextU64() % N); }

  std::string matrixLit(bool WithSpecials) {
    // Element pool mixes signs, zeros, and (optionally) NaN/Inf variables.
    static const char *Plain[] = {"0",  "1",    "-2", "0.5", "3.75",
                                  "-7", "0.125", "2",  "-0.5"};
    std::string S = "[";
    for (unsigned RI = 0; RI != Rows; ++RI) {
      if (RI)
        S += "; ";
      for (unsigned CI = 0; CI != Cols; ++CI) {
        if (CI)
          S += " ";
        if (WithSpecials && pick(8) == 0)
          S += pick(2) ? "q" : "w";
        else
          S += Plain[pick(sizeof(Plain) / sizeof(Plain[0]))];
      }
    }
    return S + "]";
  }

  std::string expr(unsigned Depth) {
    // Leaves get likelier with depth; depth 5+ is leaves only. Chains can
    // exceed the 8-slot fusion stack, exercising partial fusion.
    if (Depth >= 5 || pick(10) < 2 + Depth) {
      switch (pick(7)) {
      case 0:
        return "X";
      case 1:
        return "Y";
      case 2:
        return "Z";
      case 3:
        return "K"; // int-classed operand
      case 4:
        return "s";
      case 5:
        return "t";
      default:
        return "u"; // int scalar: x .^ u keeps the fused int-exponent rule hot
      }
    }
    switch (pick(9)) {
    case 0:
      return "(" + expr(Depth + 1) + " + " + expr(Depth + 1) + ")";
    case 1:
      return "(" + expr(Depth + 1) + " - " + expr(Depth + 1) + ")";
    case 2:
      return "(" + expr(Depth + 1) + " .* " + expr(Depth + 1) + ")";
    case 3:
      return "(" + expr(Depth + 1) + " ./ " + expr(Depth + 1) + ")";
    case 4:
      // Scalar * matrix via the matrix-op spelling (broadcast MatMul).
      return "(s * " + expr(Depth + 1) + ")";
    case 5:
      return "(-" + expr(Depth + 1) + ")";
    case 6: {
      static const char *Fns[] = {"abs", "sqrt", "exp", "sin", "cos"};
      return std::string(Fns[pick(5)]) + "(" + expr(Depth + 1) + ")";
    }
    case 7:
      // Negative bases and non-integral exponents hit the complex deopt.
      return "(" + expr(Depth + 1) + " .^ " + (pick(2) ? "u" : "t") + ")";
    default:
      return "(" + expr(Depth + 1) + " ./ (abs(" + expr(Depth + 1) +
             ") + 0.5))";
    }
  }

  Rng R;
  Rng Leaves;
  std::string Src;
  unsigned Rows = 2, Cols = 2;
};

struct EwOutcome {
  bool Threw = false;
  std::string Error;
  Value V;
  std::string Output;
};

EwOutcome runEwFuzz(const std::string &Src, EngineOptions Opts) {
  Engine E(Opts);
  EwOutcome Out;
  if (!E.addSource("ewfuzz", Src)) {
    Out.Threw = true;
    Out.Error = "parse: " + E.diagnostics();
    return Out;
  }
  try {
    auto R = E.callFunction("ewfuzz", {makeValue(Value::intScalar(5))}, 1,
                            SourceLoc());
    Out.V = *R[0];
  } catch (const MatlabError &Err) {
    Out.Threw = true;
    Out.Error = Err.message();
  }
  Out.Output = E.context().output();
  return Out;
}

/// Bit-exact matrix comparison: same shape, same class, and the same
/// 64-bit pattern for every element (NaNs included).
void expectBitIdentical(const Value &Ref, const Value &Got,
                        const std::string &Label, const std::string &Src) {
  ASSERT_EQ(Ref.rows(), Got.rows()) << Label << "\n" << Src;
  ASSERT_EQ(Ref.cols(), Got.cols()) << Label << "\n" << Src;
  EXPECT_EQ(static_cast<int>(Ref.mclass()), static_cast<int>(Got.mclass()))
      << Label << "\n"
      << Src;
  for (size_t I = 0, N = Ref.numel(); I != N; ++I) {
    uint64_t RB, GB;
    double RV = Ref.re(I), GV = Got.re(I);
    std::memcpy(&RB, &RV, sizeof RB);
    std::memcpy(&GB, &GV, sizeof GB);
    EXPECT_EQ(RB, GB) << Label << " re[" << I << "] " << RV << " vs " << GV
                      << "\n"
                      << Src;
    RV = Ref.im(I);
    GV = Got.im(I);
    std::memcpy(&RB, &RV, sizeof RB);
    std::memcpy(&GB, &GV, sizeof GB);
    EXPECT_EQ(RB, GB) << Label << " im[" << I << "]\n" << Src;
  }
}

class EwFusionFuzz : public ::testing::TestWithParam<uint64_t> {
protected:
  void TearDown() override { par::setComputeThreads(0); }
};

TEST_P(EwFusionFuzz, BitIdenticalAcrossConfigsAndThreadCounts) {
  EwTreeGen Gen(GetParam());
  std::string Src = Gen.generate();

  EngineOptions Interp;
  Interp.Policy = CompilePolicy::InterpretOnly;
  Interp.ComputeThreads = 1;
  EwOutcome Ref = runEwFuzz(Src, Interp);

  struct Cfg {
    const char *Name;
    CompilePolicy Policy;
    unsigned Threads;
    bool Fusion;
  };
  const Cfg Configs[] = {
      {"jit-1t", CompilePolicy::Jit, 1, true},
      {"jit-4t", CompilePolicy::Jit, 4, true},
      {"falcon-4t", CompilePolicy::Falcon, 4, true},
      {"jit-nofusion", CompilePolicy::Jit, 1, false},
      {"interp-4t", CompilePolicy::InterpretOnly, 4, true},
  };
  for (const Cfg &C : Configs) {
    EngineOptions O;
    O.Policy = C.Policy;
    O.ComputeThreads = C.Threads;
    O.FuseElementwise = C.Fusion;
    EwOutcome Got = runEwFuzz(Src, O);
    ASSERT_EQ(Ref.Threw, Got.Threw)
        << C.Name << " error='" << Got.Error << "' vs ref='" << Ref.Error
        << "'\nprogram:\n"
        << Src;
    if (Ref.Threw)
      EXPECT_EQ(Ref.Error, Got.Error) << C.Name << "\n" << Src;
    else
      expectBitIdentical(Ref.V, Got.V, C.Name, Src);
    EXPECT_EQ(Ref.Output, Got.Output) << C.Name << "\n" << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EwFusionFuzz,
                         ::testing::Range<uint64_t>(1, 61));

//===----------------------------------------------------------------------===//
// Small-vector fuzzing: a 1x3 vector w that the compiled code keeps in F
// registers, built from literals, rotated, scaled, read with constant
// subscripts inside scalar expressions and summed into the output. Escapes
// into builtins come one per statement; one inside a loop keeps w boxed.
// A second stream adds products with a transposed left operand: scalar
// leaves become x' * y of two columns and statements gain a M' * v.
// A separate generator, so ProgramGen's seeds keep their programs.
//===----------------------------------------------------------------------===//

class SmallVecGen {
public:
  explicit SmallVecGen(uint64_t Seed) : R(Seed), Products(~Seed) {}

  std::string generate() {
    Src = "function out = vfuzz(n)\n"
          "a = n + 1;\n"
          "b = 3;\n"
          "c = 0.5;\n"
          "w = [a, b, c];\n";
    unsigned NumStmts = 3 + pick(6);
    for (unsigned S = 0; S != NumStmts; ++S)
      statement(1);
    Src += "out = [a + b + c + sum(w), w(1), w(2), w(3)];\n";
    return Src;
  }

private:
  unsigned pick(unsigned N) { return static_cast<unsigned>(R.nextU64() % N); }

  std::string scalarExpr(unsigned Depth) {
    static const char *Leaves[] = {"a", "b", "c", "w(1)", "w(2)", "w(3)",
                                   "2", "-1", "0.25"};
    // One leaf in six is a product with a transposed column (DotT), chosen
    // by the second stream so each seed's program is otherwise unchanged.
    static const char *Dots[] = {"([w(1); w(2); w(3)]' * w')",
                                 "([w(3); a; w(2)].' * [a; b; c])"};
    switch (Depth > 2 ? 0 : pick(5)) {
    case 0: {
      const char *Leaf = Leaves[pick(sizeof(Leaves) / sizeof(Leaves[0]))];
      return Products.nextU64() % 6 == 0 ? Dots[Products.nextU64() % 2]
                                         : Leaf;
    }
    case 1: {
      static const char *Ops[] = {" + ", " - ", " * "};
      return "(" + scalarExpr(Depth + 1) + Ops[pick(3)] +
             scalarExpr(Depth + 1) + ")";
    }
    case 2:
      return "(" + scalarExpr(Depth + 1) + " / (abs(" +
             scalarExpr(Depth + 1) + ") + 1))";
    case 3:
      return "cos(" + scalarExpr(Depth + 1) + ")";
    default:
      return "w(" + std::to_string(1 + pick(3)) + ")";
    }
  }

  void statement(unsigned Depth) {
    statementFromR(Depth);
    // One statement in five is followed by a matrix-transpose product
    // (MatMulT), drawn from the second stream. It is always conformant, so
    // every seed still reaches the bit-for-bit comparison of out.
    if (Products.nextU64() % 5 == 0)
      Src += "w = ([w; w - c]' * [a; b])';\n";
  }

  void statementFromR(unsigned Depth) {
    switch (Depth > 2 ? pick(5) : pick(8)) {
    case 0:
      Src += "w = [" + scalarExpr(1) + ", " + scalarExpr(2) + ", " +
             scalarExpr(2) + "];\n";
      return;
    case 1: {
      static const char *Perms[] = {"[w(3), w(1), w(2)]", "[w(2), w(3), w(1)]",
                                    "[w(2), w(1), w(3)]", "[w(1), w(1), w(2)]"};
      Src += std::string("w = ") + Perms[pick(4)] + ";\n";
      return;
    }
    case 2:
      Src += "w = w .* " + scalarExpr(2) + " + w;\n";
      return;
    case 3:
      Src += "w = (w - " + scalarExpr(2) + ") / 4;\n";
      return;
    case 4: {
      static const char *Vars[] = {"a", "b", "c"};
      Src += std::string(Vars[pick(3)]) + " = " + scalarExpr(1) + ";\n";
      return;
    }
    case 5:
      Src += "if " + scalarExpr(2) + " > " + scalarExpr(2) + "\n";
      statement(Depth + 1);
      if (pick(2)) {
        Src += "else\n";
        statement(Depth + 1);
      }
      Src += "end\n";
      return;
    case 6:
      Src += "for k = 1:" + std::to_string(2 + pick(5)) + "\n";
      statement(Depth + 1);
      if (pick(2))
        Src += "w = [w(2), w(3), w(1) + k];\n";
      Src += "end\n";
      return;
    default: {
      // An escape into a builtin mid-function.
      static const char *Escapes[] = {"sum(w)", "min(w)", "numel(w)"};
      Src += std::string("b = ") + Escapes[pick(3)] + ";\n";
      return;
    }
    }
  }

  Rng R;
  Rng Products;
  std::string Src;
};

class SmallVecSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmallVecSoundness, RegisterVectorsAgreeWithInterpreter) {
  SmallVecGen Gen(GetParam());
  std::string Src = Gen.generate();
  auto Run = [&Src](EngineOptions Opts) {
    Engine E(Opts);
    EwOutcome Out;
    EXPECT_TRUE(E.addSource("vfuzz", Src)) << E.diagnostics();
    try {
      auto R = E.callFunction("vfuzz", {makeValue(Value::intScalar(5))}, 1,
                              SourceLoc());
      Out.V = *R[0];
    } catch (const MatlabError &Err) {
      Out.Threw = true;
      Out.Error = Err.message();
    }
    Out.Output = E.context().output();
    return Out;
  };

  EngineOptions Interp;
  Interp.Policy = CompilePolicy::InterpretOnly;
  EwOutcome Ref = Run(Interp);

  std::vector<std::pair<const char *, EngineOptions>> Configs;
  EngineOptions Jit;
  Jit.Policy = CompilePolicy::Jit;
  Configs.push_back({"jit", Jit});
  EngineOptions NoFusion = Jit;
  NoFusion.FuseElementwise = false;
  Configs.push_back({"jit-nofusion", NoFusion});
  EngineOptions SpillAll = Jit;
  SpillAll.RegAlloc.SpillEverything = true;
  Configs.push_back({"jit-spillall", SpillAll});
#ifndef __SANITIZE_THREAD__
  // Seeds 1-20 also run as machine code (one cc invocation each).
  if (GetParam() <= 20 && nativeHostCompilerAvailable()) {
    EngineOptions Native = Jit;
    Native.BackgroundCompileThreads = 0;
    Native.NativeTier = true;
    Native.NativeHotThreshold = 1;
    Configs.push_back({"native", Native});
  }
#endif
  for (const auto &[Name, Opts] : Configs) {
    EwOutcome Got = Run(Opts);
    ASSERT_EQ(Ref.Threw, Got.Threw)
        << Name << " error='" << Got.Error << "' vs ref='" << Ref.Error
        << "'\nprogram:\n"
        << Src;
    if (Ref.Threw) {
      EXPECT_EQ(Ref.Error, Got.Error) << Name << "\n" << Src;
    } else {
      // Int and Real are one class to a program; compare the values.
      ASSERT_EQ(Ref.V.numel(), Got.V.numel()) << Name << "\n" << Src;
      for (size_t I = 0; I != Ref.V.numel(); ++I)
        EXPECT_EQ(std::bit_cast<uint64_t>(Ref.V.re(I)),
                  std::bit_cast<uint64_t>(Got.V.re(I)))
            << Name << " elem " << I << ": " << Ref.V.re(I) << " vs "
            << Got.V.re(I) << "\n"
            << Src;
    }
    EXPECT_EQ(Ref.Output, Got.Output) << Name << "\n" << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallVecSoundness,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
