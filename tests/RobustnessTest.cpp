//===- tests/RobustnessTest.cpp - Limits, interrupts, OOM, quarantine ------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The hardened execution pipeline: execution limits (op budget, memory
// ceiling) and cooperative interrupts surface as clean MATLAB errors with
// the engine intact; compiler crashes (injected) quarantine the function
// behind a transparent interpreter fallback; the repository's version cap
// holds under pressure; engine teardown is safe with compiles in flight.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "support/ResourceGuard.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace majic;
namespace fs = std::filesystem;

namespace {

class RobustnessTest : public ::testing::Test {
protected:
  void SetUp() override {
    faults::reset();
    exec::clearInterrupt();
  }
  void TearDown() override {
    faults::reset();
    exec::clearInterrupt();
    par::setComputeThreads(0);
  }
};

ValuePtr intArg(double X) { return makeValue(Value::intScalar(X)); }

//===----------------------------------------------------------------------===//
// Execution limits
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, OpBudgetStopsRunawayLoop) {
  EngineOptions O;
  O.Policy = CompilePolicy::InterpretOnly;
  O.Limits.MaxOps = 5000;
  Engine E(O);

  std::string Out = E.runScript("t = 0;\n"
                                "while 1\n"
                                "t = t + 1;\n"
                                "end\n");
  EXPECT_NE(Out.find("??? operation budget exceeded"), std::string::npos)
      << Out;

  // The budget is per top-level invocation: a small request afterwards
  // runs on a fresh budget, and the workspace survived the abort.
  Out = E.runScript("x = t + 1;\n");
  EXPECT_EQ(Out.find("???"), std::string::npos) << Out;
  ASSERT_TRUE(E.workspaceVar("x"));
  EXPECT_GT(E.workspaceVar("x")->scalarValue(), 1.0);
}

TEST_F(RobustnessTest, OpBudgetStopsEmptyBodyLoops) {
  // Loops are charged per iteration, not per body statement: an empty body
  // executes zero statements, so `while 1, end` would otherwise spin forever.
  EngineOptions O;
  O.Policy = CompilePolicy::InterpretOnly;
  O.Limits.MaxOps = 5000;
  Engine E(O);

  std::string Out = E.runScript("while 1\nend\n");
  EXPECT_NE(Out.find("??? operation budget exceeded"), std::string::npos)
      << Out;

  Out = E.runScript("for k = 1:100000000\nend\n");
  EXPECT_NE(Out.find("??? operation budget exceeded"), std::string::npos)
      << Out;
}

TEST_F(RobustnessTest, OpBudgetAppliesToCompiledCode) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.Limits.MaxOps = 2000;
  Engine E(O);
  ASSERT_TRUE(E.addSource("spin", "function out = spin(n)\n"
                                  "out = 0;\n"
                                  "for k = 1:n\n"
                                  "out = out + k;\n"
                                  "end\n"));
  EXPECT_THROW(E.callFunction("spin", {intArg(1e7)}, 1, SourceLoc()),
               MatlabError);
  // A cheap call fits the budget; the engine is fully usable.
  auto R = E.callFunction("spin", {intArg(10)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 55.0);
}

TEST_F(RobustnessTest, MemoryLimitIsRecoverable) {
  EngineOptions O;
  O.Policy = CompilePolicy::InterpretOnly;
  O.Limits.MaxAllocBytes = 1 << 20; // 1 MiB: a 512x512 double is 2 MiB
  Engine E(O);

  std::string Out = E.runScript("a = zeros(512, 512);\n");
  EXPECT_NE(Out.find("??? out of memory allocating a 512x512 matrix"),
            std::string::npos)
      << Out;
  EXPECT_FALSE(E.workspaceVar("a"));

  // Small allocations still fit and the engine keeps working.
  Out = E.runScript("b = zeros(4, 4);\nb(2, 2) = 7;\n");
  EXPECT_EQ(Out.find("???"), std::string::npos) << Out;
  ASSERT_TRUE(E.workspaceVar("b"));
  EXPECT_EQ(E.workspaceVar("b")->numel(), 16u);
}

TEST_F(RobustnessTest, ElementLimitCountsAsBytes) {
  EngineOptions O;
  O.Policy = CompilePolicy::InterpretOnly;
  O.Limits.MaxAllocBytes = 8000; // 1000 doubles
  Engine E(O);
  std::string Out = E.runScript("a = zeros(100, 100);\n");
  EXPECT_NE(Out.find("out of memory"), std::string::npos) << Out;
  Out = E.runScript("a = zeros(10, 10);\n");
  EXPECT_EQ(Out.find("???"), std::string::npos) << Out;
}

TEST_F(RobustnessTest, EngineLiftsMemoryLimitOnDestruction) {
  ASSERT_EQ(mem::limitBytes(), 0u);
  {
    EngineOptions O;
    O.Limits.MaxAllocBytes = 1 << 20;
    Engine E(O);
    EXPECT_EQ(mem::limitBytes(), static_cast<uint64_t>(1 << 20));
  }
  EXPECT_EQ(mem::limitBytes(), 0u);
}

TEST_F(RobustnessTest, LiveByteAccountingBalances) {
  uint64_t Before = mem::liveBytes();
  {
    Value V = Value::zeros(100, 100);
    EXPECT_GE(mem::liveBytes(), Before + 100 * 100 * sizeof(double));
    EXPECT_GE(mem::peakBytes(), Before + 100 * 100 * sizeof(double));
  }
  EXPECT_EQ(mem::liveBytes(), Before);
}

//===----------------------------------------------------------------------===//
// Cooperative interrupt
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, PendingInterruptFailsFast) {
  EngineOptions O;
  O.Policy = CompilePolicy::InterpretOnly;
  Engine E(O);
  ASSERT_TRUE(E.addSource("f", "function y = f(x)\ny = x + 1;\n"));

  E.requestInterrupt();
  EXPECT_THROW(E.callFunction("f", {intArg(1)}, 1, SourceLoc()), MatlabError);
  E.clearInterrupt();
  auto R = E.callFunction("f", {intArg(1)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 2.0);
}

TEST_F(RobustnessTest, InterruptStopsRunningScript) {
  EngineOptions O;
  O.Policy = CompilePolicy::InterpretOnly;
  Engine E(O);

  // Deterministic mid-run interruption without timers: the script prints
  // once early in its loop, and the output sink pulls the brake. The
  // interpreter polls between statements, so the loop stops right there.
  std::string Seen;
  E.context().setSink([&](const std::string &S) {
    Seen += S;
    E.requestInterrupt();
  });
  E.runScript("t = 0;\n"
              "for k = 1:100000\n"
              "t = t + 1;\n"
              "if k == 3\n"
              "disp(t);\n"
              "end\n"
              "end\n");
  E.context().setSink(nullptr);
  EXPECT_NE(Seen.find("execution interrupted"), std::string::npos) << Seen;

  // The partial workspace was preserved and the engine keeps running.
  E.clearInterrupt();
  ASSERT_TRUE(E.workspaceVar("t"));
  EXPECT_LT(E.workspaceVar("t")->scalarValue(), 100000.0);
  std::string Out = E.runScript("u = t + 1;\n");
  EXPECT_EQ(Out.find("???"), std::string::npos) << Out;
}

TEST_F(RobustnessTest, InterruptUnwindsParallelKernels) {
  par::setComputeThreads(4);
  exec::requestInterrupt();
  EXPECT_THROW(par::parallelFor(1 << 16, 1, [](size_t, size_t) {}),
               MatlabError);
  exec::clearInterrupt();
}

//===----------------------------------------------------------------------===//
// Injected out-of-memory
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, InjectedAllocationFaultIsRecoverable) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  ASSERT_TRUE(E.addSource("g", "function y = g(n)\n"
                               "y = zeros(n, n);\n"
                               "y(1, 1) = 3;\n"));

  faults::armEvery(faults::Site::ValueAlloc, 1);
  EXPECT_THROW(E.callFunction("g", {intArg(8)}, 1, SourceLoc()), MatlabError);
  EXPECT_GE(faults::stats(faults::Site::ValueAlloc).Fired, 1u);

  faults::reset();
  auto R = E.callFunction("g", {intArg(8)}, 1, SourceLoc());
  EXPECT_EQ(R[0]->numel(), 64u);
  EXPECT_DOUBLE_EQ(R[0]->at(0, 0), 3.0);
}

//===----------------------------------------------------------------------===//
// Compile-failure quarantine
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, ForegroundCompileFaultQuarantinesAndFallsBack) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  ASSERT_TRUE(E.addSource("f", "function y = f(x)\ny = x * 2;\n"));

  faults::armAt(faults::Site::CodeGen, 1);
  // The injected compiler crash is invisible to the caller: the call
  // falls back to the interpreter and returns the right answer.
  auto R = E.callFunction("f", {intArg(21)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 42.0);
  EXPECT_EQ(E.speculationStats().Failed, 1u);
  EXPECT_TRUE(E.isQuarantined("f"));
  EXPECT_EQ(E.jitCompiles(), 0u);
  EXPECT_EQ(E.repository().versionCount("f"), 0u);

  // Quarantined: the compiler is not retried (the site sees no new hits),
  // but calls keep working through the interpreter.
  R = E.callFunction("f", {intArg(5)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 10.0);
  EXPECT_EQ(faults::stats(faults::Site::CodeGen).Hits, 1u);
  EXPECT_EQ(E.speculationStats().Failed, 1u);

  // A source change lifts the quarantine; the next call compiles.
  ASSERT_TRUE(E.addSource("f", "function y = f(x)\ny = x * 2;\n"));
  EXPECT_FALSE(E.isQuarantined("f"));
  R = E.callFunction("f", {intArg(7)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 14.0);
  EXPECT_EQ(E.jitCompiles(), 1u);
  EXPECT_EQ(faults::stats(faults::Site::CodeGen).Hits, 2u);
}

TEST_F(RobustnessTest, BackgroundCompileFaultQuarantines) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  ASSERT_TRUE(E.addSource("f", "function y = f(x)\ny = x + 1;\n"));

  faults::armAt(faults::Site::CodeGen, 1);
  ASSERT_TRUE(E.speculateAsync("f"));
  E.drainCompiles();
  SpeculationStats S = E.speculationStats();
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_TRUE(E.isQuarantined("f"));
  EXPECT_EQ(E.repository().versionCount("f"), 0u);

  // Quarantined functions are not re-queued...
  EXPECT_FALSE(E.speculateAsync("f"));
  // ...but still run (interpreted).
  auto R = E.callFunction("f", {intArg(4)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 5.0);

  // Reload, recompile, and the object is published this time.
  faults::reset();
  ASSERT_TRUE(E.addSource("f", "function y = f(x)\ny = x + 1;\n"));
  ASSERT_TRUE(E.speculateAsync("f"));
  E.drainCompiles();
  EXPECT_EQ(E.speculationStats().Completed, 1u);
  EXPECT_EQ(E.repository().versionCount("f"), 1u);
}

//===----------------------------------------------------------------------===//
// Repository version cap
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, VersionCapEvictsLeastUsed) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  E.repository().setVersionCap(4);
  ASSERT_TRUE(E.addSource("f", "function y = f(x)\ny = x * 2;\n"));

  auto ShapeArg = [](size_t Cols) {
    return makeValue(Value::zeros(1, Cols));
  };

  // Four distinct exact-shape versions fill the cap.
  for (size_t C = 1; C <= 4; ++C)
    ASSERT_TRUE(E.precompileWithArgs("f", {ShapeArg(C)}));
  EXPECT_EQ(E.repository().versionCount("f"), 4u);
  EXPECT_EQ(E.repository().evictions(), 0u);

  // Make the 1x2 version hot.
  for (int I = 0; I != 50; ++I)
    E.callFunction("f", {ShapeArg(2)}, 1, SourceLoc());

  // Eight more versions force evictions; the hot version survives.
  for (size_t C = 5; C <= 12; ++C)
    ASSERT_TRUE(E.precompileWithArgs("f", {ShapeArg(C)}));
  EXPECT_EQ(E.repository().versionCount("f"), 4u);
  EXPECT_EQ(E.repository().evictions(), 8u);
  TypeSignature HotSig = TypeSignature::ofValues({ShapeArg(2)});
  bool HotSurvived = false;
  for (const CompiledObjectPtr &V : E.repository().versions("f"))
    if (V->Sig == HotSig)
      HotSurvived = true;
  EXPECT_TRUE(HotSurvived);
}

TEST_F(RobustnessTest, VersionCapHoldsOverLongSession) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  E.repository().setVersionCap(4);
  ASSERT_TRUE(E.addSource("f", "function y = f(x)\ny = x * 2;\n"));

  for (int I = 0; I != 1000; ++I) {
    size_t Cols = 1 + static_cast<size_t>(I % 20);
    if (I % 7 == 0)
      E.precompileWithArgs("f", {makeValue(Value::zeros(2, Cols))});
    auto R = E.callFunction("f", {makeValue(Value::zeros(1, Cols))}, 1,
                            SourceLoc());
    ASSERT_EQ(R[0]->numel(), Cols);
    ASSERT_LE(E.repository().versionCount("f"), 4u);
  }
  EXPECT_GT(E.repository().evictions(), 0u);
}

//===----------------------------------------------------------------------===//
// Shutdown with compiles in flight
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, TeardownWithCompilesInFlightIsSafe) {
  for (int Iter = 0; Iter != 20; ++Iter) {
    EngineOptions O;
    O.Policy = CompilePolicy::Speculative;
    O.BackgroundCompileThreads = 2;
    Engine E(O);
    if (Iter % 3 == 0)
      E.pauseBackgroundCompiles(); // the destructor must un-pause
    for (int F = 0; F != 3; ++F) {
      std::string Name = "fn" + std::to_string(F);
      ASSERT_TRUE(E.addSource(Name, "function y = " + Name + "(x)\n"
                                    "y = x;\n"
                                    "for k = 1:8\n"
                                    "y = y + k;\n"
                                    "end\n"));
      E.speculateAsync(Name);
    }
    // Engine destroyed with work queued or running: must join cleanly.
  }
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// Snoop-batch ordering
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, SnoopSpeculatesMostRecentSourceFirst) {
  fs::path Dir = fs::temp_directory_path() / "majic_snoop_order_test";
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  auto WriteFn = [&](const std::string &Name,
                     std::chrono::minutes Age) {
    fs::path P = Dir / (Name + ".m");
    std::ofstream(P.string()) << "function y = " << Name << "(x)\ny = x;\n";
    fs::last_write_time(P, fs::file_time_type::clock::now() - Age);
  };
  WriteFn("aa", std::chrono::minutes(30)); // oldest
  WriteFn("bb", std::chrono::minutes(1));  // freshest edit
  WriteFn("cc", std::chrono::minutes(10));

  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  E.pauseBackgroundCompiles(); // freeze the queue for inspection
  E.watchDirectory(Dir.string());
  EXPECT_EQ(E.snoop(), 3u);

  // Most recently edited first: bb, then cc, then aa.
  std::vector<std::string> Queued = E.queuedSpeculations();
  ASSERT_EQ(Queued.size(), 3u);
  EXPECT_EQ(Queued[0], "bb");
  EXPECT_EQ(Queued[1], "cc");
  EXPECT_EQ(Queued[2], "aa");

  E.resumeBackgroundCompiles();
  E.drainCompiles();
  EXPECT_EQ(E.speculationStats().Completed, 3u);
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Fault-spec grammar: malformed MAJIC_FAULTS specs are rejected loudly
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, MalformedFaultSpecsAreDiagnosed) {
  // Each malformed spec must fail with a diagnostic naming the problem -
  // a typo'd schedule silently doing nothing would defeat the harness.
  struct Case {
    const char *Spec;
    const char *ErrorContains;
  };
  const Case Cases[] = {
      {"codegen", "has no '='"},
      {"=at:1", "unknown fault site"},
      {"warpcore=at:1", "unknown fault site"},
      {"codegen=", "unknown fault action"},
      {"codegen=explode:3", "unknown fault action"},
      {"codegen=at", "malformed count"},
      {"codegen=at:", "malformed count"},
      {"codegen=at:x", "malformed count"},
      {"codegen=at:3x", "malformed count"},
      {"codegen=at:0", "needs a positive count"},
      {"codegen=every:0", "needs a positive count"},
      {"codegen=rand", "malformed probability"},
      {"codegen=rand:oops:7", "malformed probability"},
      {"codegen=rand:0.5:zz", "malformed seed"},
      {"codegen=rand:0:7", "needs probability in (0,1]"},
      {"codegen=rand:1.5:7", "needs probability in (0,1]"},
      // One bad entry poisons the whole spec, wherever it sits.
      {"parse=at:1,codegen=at:x", "malformed count"},
  };
  for (const Case &C : Cases) {
    std::string Error;
    EXPECT_FALSE(faults::loadSpec(C.Spec, &Error)) << C.Spec;
    EXPECT_NE(Error.find(C.ErrorContains), std::string::npos)
        << "spec '" << C.Spec << "' produced: " << Error;
  }
}

TEST_F(RobustnessTest, RejectedSpecLeavesPriorScheduleIntact) {
  // A schedule is armed...
  ASSERT_TRUE(faults::loadSpec("codegen=at:5"));
  EXPECT_TRUE(faults::anyArmed());
  // ...and a later malformed spec is rejected *before* the replace: the
  // working schedule keeps running rather than being half-torn-down.
  std::string Error;
  EXPECT_FALSE(faults::loadSpec("codegen=at:x", &Error));
  EXPECT_TRUE(faults::anyArmed());
  for (int I = 0; I != 4; ++I)
    EXPECT_FALSE(faults::shouldFire(faults::Site::CodeGen));
  EXPECT_TRUE(faults::shouldFire(faults::Site::CodeGen)); // the 5th hit
}

TEST_F(RobustnessTest, ValidSpecsParseAndArm) {
  ASSERT_TRUE(faults::loadSpec(
      "parse=at:2;infer=every:3,repo-save=rand:0.5:9;;repo-load=at:1"));
  EXPECT_TRUE(faults::anyArmed());
  // at:1 fires immediately; every:3 fires on the third hit.
  EXPECT_TRUE(faults::shouldFire(faults::Site::RepoLoad));
  EXPECT_FALSE(faults::shouldFire(faults::Site::Infer));
  EXPECT_FALSE(faults::shouldFire(faults::Site::Infer));
  EXPECT_TRUE(faults::shouldFire(faults::Site::Infer));
  // The empty spec is valid and disarms everything.
  ASSERT_TRUE(faults::loadSpec(""));
  EXPECT_FALSE(faults::anyArmed());
}

//===----------------------------------------------------------------------===//
// Thread-pool fault containment
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, ParallelForSurvivesEnqueueFaults) {
  par::setComputeThreads(4);
  faults::armEvery(faults::Site::PoolEnqueue, 1);
  std::vector<double> Out(1000, 0.0);
  // Every pool handoff is refused; the chunks run inline on the caller and
  // the result is still complete and correct.
  par::parallelFor(Out.size(), 1, [&](size_t B, size_t E2) {
    for (size_t I = B; I != E2; ++I)
      Out[I] = static_cast<double>(I) * 2;
  });
  for (size_t I = 0; I != Out.size(); ++I)
    ASSERT_DOUBLE_EQ(Out[I], static_cast<double>(I) * 2);
}

TEST_F(RobustnessTest, PoolCountsUncaughtTaskExceptions) {
  ThreadPool P(1);
  P.enqueue([] { throw std::runtime_error("boom"); });
  P.waitIdle();
  EXPECT_EQ(P.uncaughtTaskExceptions(), 1u);
}

TEST_F(RobustnessTest, EnqueueFaultOnSpeculationIsCounted) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  ASSERT_TRUE(E.addSource("f", "function y = f(x)\ny = x;\n"));

  faults::armEvery(faults::Site::PoolEnqueue, 1);
  EXPECT_FALSE(E.speculateAsync("f"));
  SpeculationStats S = E.speculationStats();
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.Queued, 0u);
  EXPECT_FALSE(E.speculationInFlight("f"));

  // The refused request left no bookkeeping: drain returns immediately and
  // a later attempt (faults off) succeeds.
  E.drainCompiles();
  faults::reset();
  ASSERT_TRUE(E.speculateAsync("f"));
  E.drainCompiles();
  EXPECT_EQ(E.speculationStats().Completed, 1u);
}

} // namespace
