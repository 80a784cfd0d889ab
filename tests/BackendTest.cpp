//===- tests/BackendTest.cpp - Compiled vs interpreted soundness ---------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The core soundness property: for every program, every compiled
// configuration (JIT / optimized / generic / ablations / spill-everything)
// produces bit-identical results and output to the interpreter.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "ast/Parser.h"
#include "backend/Compiler.h"
#include "engine/Corpus.h"
#include "native/NativeCompiler.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <functional>
#include <fstream>
#include <sstream>
#include <limits>

using namespace majic;

namespace {

struct RunOutcome {
  std::vector<Value> Results;
  std::string Output;
  bool Threw = false;
  std::string ErrorMessage;
  uint64_t NativeHits = 0;
};

std::vector<Value> intArgs(const std::vector<double> &Xs) {
  std::vector<Value> Args;
  for (double X : Xs)
    Args.push_back(Value::intScalar(X));
  return Args;
}

RunOutcome runWith(EngineOptions Opts, const std::string &Source,
                   const std::string &Fn, const std::vector<Value> &ArgValues,
                   size_t NumOuts) {
  Engine E(Opts);
  EXPECT_TRUE(E.addSource(Fn, Source)) << E.diagnostics();
  std::vector<ValuePtr> Args;
  for (const Value &A : ArgValues)
    Args.push_back(makeValue(A));
  RunOutcome Out;
  try {
    std::vector<ValuePtr> Rs = E.callFunction(Fn, Args, NumOuts, SourceLoc());
    for (const ValuePtr &R : Rs)
      Out.Results.push_back(*R);
  } catch (const MatlabError &Err) {
    Out.Threw = true;
    Out.ErrorMessage = Err.message();
  }
  Out.Output = E.context().output();
  Out.NativeHits = E.nativeHits();
  return Out;
}

void expectSameValue(const Value &A, const Value &B, const std::string &Cfg) {
  ASSERT_EQ(A.rows(), B.rows()) << Cfg;
  ASSERT_EQ(A.cols(), B.cols()) << Cfg;
  ASSERT_EQ(A.isString(), B.isString()) << Cfg;
  if (A.isString()) {
    EXPECT_EQ(A.stringValue(), B.stringValue()) << Cfg;
    return;
  }
  // Bit for bit: the sign of a zero and of a NaN count.
  auto Bits = [](double X) { return std::bit_cast<uint64_t>(X); };
  for (size_t I = 0, E = A.numel(); I != E; ++I) {
    EXPECT_EQ(Bits(A.re(I)), Bits(B.re(I)))
        << Cfg << " elem " << I << ": " << A.re(I) << " vs " << B.re(I);
    EXPECT_EQ(Bits(A.im(I)), Bits(B.im(I)))
        << Cfg << " elem " << I << " (imag): " << A.im(I) << " vs "
        << B.im(I);
  }
}

bool hostCompilerAvailable() {
  static const bool Available = native::NativeCompiler("cc").available();
  return Available;
}

struct Config {
  const char *Name;
  EngineOptions Opts;
};

/// Every compiled configuration. \p Native adds the native tier (one cc
/// invocation per call, so only where it is the subject of the test).
std::vector<Config> compiledConfigs(bool Native) {
  std::vector<Config> Configs;
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    Configs.push_back({"jit", O});
  }
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Falcon;
    Configs.push_back({"falcon(optimized)", O});
  }
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Mcc;
    Configs.push_back({"mcc(generic)", O});
  }
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Speculative;
    Configs.push_back({"speculative", O});
  }
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.Infer.EnableRanges = false;
    Configs.push_back({"jit-noranges", O});
  }
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.Infer.EnableMinShapes = false;
    Configs.push_back({"jit-nominshapes", O});
  }
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.RegAlloc.SpillEverything = true;
    Configs.push_back({"jit-spillall", O});
  }
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.Platform = PlatformModel::mips();
    Configs.push_back({"jit-mips", O});
  }
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Falcon;
    O.Platform = PlatformModel::mips();
    Configs.push_back({"falcon-mips", O});
  }
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.InlineCalls = false;
    Configs.push_back({"jit-noinline", O});
  }
#ifndef __SANITIZE_THREAD__
  // The first call already compiles, loads and runs machine code. (Under
  // TSan the uninstrumented generated .so cannot be loaded.)
  if (Native && hostCompilerAvailable()) {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.BackgroundCompileThreads = 0;
    O.NativeTier = true;
    O.NativeHotThreshold = 1;
    Configs.push_back({"native", O});
  }
#endif
  return Configs;
}

/// Runs \p Source's function \p Fn under the interpreter and under each of
/// \p Configs, asserting identical behavior: the same results bit for bit,
/// the same output, and the same error text. \p Adjust, when set, applies
/// to the interpreter's options and every configuration's.
void checkSoundnessOn(const std::vector<Config> &Configs,
                      const std::string &Source, const std::string &Fn,
                      const std::vector<Value> &Args, size_t NumOuts,
                      const std::function<void(EngineOptions &)> &Adjust =
                          nullptr) {
  EngineOptions Ref;
  Ref.Policy = CompilePolicy::InterpretOnly;
  if (Adjust)
    Adjust(Ref);
  RunOutcome Expected = runWith(Ref, Source, Fn, Args, NumOuts);

  for (const Config &C : Configs) {
    EngineOptions Opts = C.Opts;
    if (Adjust)
      Adjust(Opts);
    RunOutcome Got = runWith(Opts, Source, Fn, Args, NumOuts);
    // A run that throws counts no native hit, even when native code threw.
    if (Opts.NativeTier && !Got.Threw) {
      EXPECT_GT(Got.NativeHits, 0u) << C.Name << ": not served native";
    }
    EXPECT_EQ(Expected.Threw, Got.Threw)
        << C.Name << ": " << Got.ErrorMessage;
    EXPECT_EQ(Expected.ErrorMessage, Got.ErrorMessage) << C.Name;
    EXPECT_EQ(Expected.Output, Got.Output) << C.Name;
    if (Expected.Threw || Got.Threw)
      continue;
    ASSERT_EQ(Expected.Results.size(), Got.Results.size()) << C.Name;
    for (size_t I = 0; I != Expected.Results.size(); ++I)
      expectSameValue(Expected.Results[I], Got.Results[I],
                      std::string(C.Name) + " result " + std::to_string(I));
  }
}

/// checkSoundnessOn every compiled configuration; \p Native adds the
/// native tier.
void checkSoundness(const std::string &Source, const std::string &Fn,
                    const std::vector<Value> &Args, size_t NumOuts = 1,
                    bool Native = false) {
  checkSoundnessOn(compiledConfigs(Native), Source, Fn, Args, NumOuts);
}

void checkSoundness(const std::string &Source, const std::string &Fn,
                    std::initializer_list<double> IntArgs,
                    size_t NumOuts = 1, bool Native = false) {
  checkSoundness(Source, Fn, intArgs(IntArgs), NumOuts, Native);
}

//===----------------------------------------------------------------------===//
// Soundness across configurations
//===----------------------------------------------------------------------===//

TEST(Backend, ScalarArithmetic) {
  checkSoundness("function y = f(a, b)\n"
                 "y = (a + b) * 3 - a / b + a \\ b + 2^a - a^0.5;\n",
                 "f", {4, 2});
}

TEST(Backend, ScalarLoopAccumulation) {
  checkSoundness("function s = f(n)\ns = 0;\nfor k = 1:n\ns = s + k * k;\n"
                 "end\n",
                 "f", {100});
}

TEST(Backend, WhileLoopWithBreakContinue) {
  checkSoundness("function s = f(n)\ns = 0;\nk = 0;\n"
                 "while 1\nk = k + 1;\nif k > n\nbreak;\nend\n"
                 "if mod(k, 2) == 0\ncontinue;\nend\ns = s + k;\nend\n",
                 "f", {20});
}

TEST(Backend, NestedLoops2D) {
  checkSoundness("function s = f(n)\nA = zeros(n, n);\n"
                 "for i = 1:n\nfor j = 1:n\nA(i, j) = i * 10 + j;\nend\nend\n"
                 "s = 0;\n"
                 "for i = 1:n\nfor j = 1:n\ns = s + A(i, j);\nend\nend\n",
                 "f", {15});
}

TEST(Backend, VectorGrowthInLoop) {
  checkSoundness("function s = f(n)\nx = 0;\nfor k = 1:n\nx(k) = sqrt(k);\n"
                 "end\ns = sum(x);\n",
                 "f", {50}, 1, /*Native=*/true);
  // The first store creates the variable: its register starts null.
  checkSoundness("function s = f(n)\nM(2, 3) = n;\nv(n) = 1;\n"
                 "s = sum(sum(M)) + numel(M) + sum(v) + numel(v);\n",
                 "f", {9}, 1, /*Native=*/true);
}

TEST(Backend, TransposedProductsMatchTheInterpreter) {
  // A' * y selects MatMulT, x' * y and x.' * y the unboxed DotT, A' * A
  // the transposed dgemm; complex operands keep the boxed pair, which
  // conjugates under ' and not under .'. n = 5 runs the naive kernels,
  // n = 40 the blocked dgemm and n = 130 the unrolled dgemv.
  const char *Src =
      "function [a, d, c, z] = f(n)\n"
      "A = zeros(n, n + 1);\n"
      "for i = 1:n\nfor j = 1:n+1\nA(i, j) = sin(i * j) / j;\nend\nend\n"
      "x = A(:, 2);\ny = cos((1:n)');\n"
      "a = A' * y;\n"
      "d = x' * y + x.' * x;\n"
      "c = A' * A;\n"
      "w = y + 2i * x;\n"
      "z = w' * w + w.' * y + sum(A.' * w);\n";
  for (double N : {5, 40, 130})
    checkSoundness(Src, "f", {N}, 4, /*Native=*/true);
  // An inner-dimension mismatch raises the materialized product's error.
  checkSoundness("function r = g(n)\nA = ones(n, 2);\nb = ones(n + 1, 1);\n"
                 "r = A' * b;\n",
                 "g", {4}, 1, /*Native=*/true);
  checkSoundness("function r = g(n)\nv = ones(n, 1);\nu = ones(n + 1, 1);\n"
                 "r = v' * u;\n",
                 "g", {4}, 1, /*Native=*/true);
}

TEST(Backend, StructuredSolvesMatchTheInterpreter) {
  // mldivide's lower, upper and diagonal solves (and LU for the rest) on
  // every tier: all of them reach the one runtime function.
  const char *Src =
      "function [l, u, d, g] = f(n)\n"
      "L = zeros(n, n);\nfor i = 1:n\nfor j = 1:i\n"
      "L(i, j) = 1 / (i + j) + (i == j);\nend\nend\n"
      "b = cos((1:n)');\nB = [b, 2 * b];\n"
      "l = L \\ b;\n"
      "u = L' \\ B;\n"
      "D = diag((1:n)');\nd = D \\ B;\n"
      "G = L + L';\ng = G \\ b;\n";
  for (double N : {4, 37})
    checkSoundness(Src, "f", {N}, 4, /*Native=*/true);
  // A zero on a triangular diagonal is singular, as LU says; the shape
  // messages are LU's; a NaN above the diagonal makes the matrix general.
  const std::string Lower =
      "L = zeros(n, n);\nfor i = 1:n\nfor j = 1:i\nL(i, j) = 1;\nend\nend\n";
  const std::string Errors[] = {
      Lower + "L(2, 2) = 0;\nr = L \\ ones(n, 1);\n",
      Lower + "U = L';\nU(n, n) = 0;\nr = U \\ ones(n, 1);\n",
      "r = diag(zeros(n, 1)) \\ ones(n, 1);\n",
      "r = ones(n, n + 1) \\ ones(n, 1);\n",
      "r = eye(n) \\ ones(n + 1, 1);\n",
      Lower + "L(1, n) = NaN;\nr = L \\ (1:n)';\n"};
  for (const std::string &Body : Errors)
    checkSoundness("function r = g(n)\n" + Body, "g", {5}, 1,
                   /*Native=*/true);
}

TEST(Backend, ComplexScalarIteration) {
  // c from an imaginary literal: a constant register pair.
  checkSoundness("function m = f(n)\nc = -0.4 + 0.6i;\nz = 0;\n"
                 "for k = 1:n\nz = z * z + c;\nend\nm = abs(z);\n",
                 "f", {12}, 1, /*Native=*/true);

  // abs of a complex register pair lowers to hypot: m reads the loop's
  // pair, a the parameter's (unboxed in the prologue, so every bit of the
  // input reaches hypot).
  const char *Src = "function [m, a] = f(n, c)\nz = 0;\n"
                    "for k = 1:n\nz = z * z + c;\nend\nm = abs(z);\n"
                    "a = abs(c);\n";
  checkSoundness(Src, "f",
                 {Value::intScalar(12), Value::complexScalar(-0.4, 0.6)}, 2,
                 /*Native=*/true);

  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  // The x86 default NaN, which Inf - Inf produces there: sign bit set.
  const double NegNaN = std::bit_cast<double>(0xfff8000000000000ull);
  const double Sub = std::numeric_limits<double>::denorm_min();
  // |re|, |im| near 1e308 overflow a naive sqrt(re^2 + im^2).
  const std::pair<double, double> Edges[] = {
      {0.0, 0.0},        {-0.0, -0.0},     {-0.0, 0.0},
      {0.0, -0.0},       {Inf, 0.0},       {-Inf, -0.0},
      {0.0, -Inf},       {Inf, NaN},       {NegNaN, -Inf},
      {NaN, 0.0},        {NegNaN, 0.0},    {0.0, NegNaN},
      {NegNaN, -0.0},    {NegNaN, NegNaN}, {NaN, 1.0},
      {Sub, -Sub},       {-Sub, 0.0},      {2.2e-308, 3e-310},
      {1e308, 1e308},    {-1e308, 1.2e308}, {-1.7e308, 1e308}};
  for (auto [Re, Im] : Edges) {
    SCOPED_TRACE(::testing::Message() << "c = " << Re << " + " << Im << "i");
    checkSoundness(Src, "f",
                   {Value::intScalar(1), Value::complexScalar(Re, Im)}, 2,
                   /*Native=*/true);
  }

  // A boxed operand typed complex that holds a real at run time stays on
  // the builtin, which takes fabs: abs(-NaN) has its sign bit clear.
  const char *Boxed = "function a = f(n, x)\nw = 0;\nw(1) = x;\n"
                      "if n > 1\nw = 1i;\nend\na = abs(w);\n";
  for (double X : {NegNaN, -0.0, -Inf, -1e308}) {
    SCOPED_TRACE(::testing::Message() << "x = " << X);
    checkSoundness(Boxed, "f", {Value::intScalar(1), Value::scalar(X)}, 1,
                   /*Native=*/true);
  }
}

TEST(Backend, SmallVectorOps) {
  checkSoundness("function s = f(n)\nv = [1 2 3];\n"
                 "for k = 1:n\nv = [v(1) + 1, v(2) * 2, v(3) - 1];\nend\n"
                 "s = v(1) + v(2) + v(3);\n",
                 "f", {8});
}

TEST(Backend, MatrixLiteralAndConcat) {
  checkSoundness("function s = f(a)\nM = [a a+1; a+2 a+3];\n"
                 "N = [M; M];\ns = sum(sum(N));\n",
                 "f", {3}, 1, /*Native=*/true);
}

TEST(Backend, RangesAndColonIndexing) {
  checkSoundness("function s = f(n)\nv = 1:n;\nw = v(2:2:end);\n"
                 "s = sum(w) + numel(w);\n",
                 "f", {17}, 1, /*Native=*/true);
}

TEST(Backend, TwoDimColonAssignment) {
  checkSoundness("function s = f(n)\nA = zeros(n, n);\n"
                 "A(:, 2) = ones(n, 1) * 7;\nA(1, :) = 1:n;\n"
                 "s = sum(A(:, 2)) + sum(A(1, :));\n",
                 "f", {6}, 1, /*Native=*/true);
}

TEST(Backend, BuiltinsMix) {
  checkSoundness("function s = f(n)\nv = linspace(0, 1, n);\n"
                 "s = max(v) + min(v) + mean(v) + norm(v) + sum(abs(v));\n",
                 "f", {11});
}

TEST(Backend, MatrixSolveAndEig) {
  checkSoundness("function s = f(n)\nA = eye(n) * 4;\n"
                 "for i = 1:n-1\nA(i, i+1) = 1;\nA(i+1, i) = 1;\nend\n"
                 "b = ones(n, 1);\nx = A \\ b;\ne = eig(A);\n"
                 "s = sum(x) + sum(e);\n",
                 "f", {8});
}

TEST(Backend, EigMatchesTheInterpreter) {
  // e = eig(C) and [V, D] = eig(C) on every tier, bit for bit: all of them
  // reach the one runtime eigensolver. C is mei's symmetrized Gram matrix;
  // eye(n) has an n-fold eigenvalue.
  const char *Src =
      "function [e, V, D, W] = f(n)\n"
      "H = zeros(n + 3, n);\n"
      "for i = 1:n+3\nfor j = 1:n\nH(i, j) = sin(i * j) / j;\nend\nend\n"
      "C = H' * H;\nC = (C + C') / 2;\n"
      "e = eig(C);\n"
      "[V, D] = eig(C);\n"
      "[W, G] = eig(2 * eye(n));\n";
  for (double N : {0, 1, 2, 9, 33})
    checkSoundness(Src, "f", {N}, 4, /*Native=*/true);
  // Non-finite, non-square and non-symmetric input raise the same error on
  // every tier; a NaN or an Inf raises MATLAB's text.
  const std::string Errors[] = {
      "A = ones(n);\nA(2, 1) = NaN;\nr = eig(A);\n",
      "A = eye(n);\nA(n, n) = Inf;\n[r, D] = eig(A);\n",
      "A = eye(n);\nA(1, 2) = -Inf;\nr = eig(A);\n",
      "r = eig(ones(n, n + 1));\n",
      "A = ones(n);\nA(1, n) = 2;\nr = eig(A);\n"};
  for (const std::string &Body : Errors)
    checkSoundness("function r = g(n)\n" + Body, "g", {4}, 1,
                   /*Native=*/true);
  EngineOptions Interp;
  Interp.Policy = CompilePolicy::InterpretOnly;
  for (size_t I = 0; I != 3; ++I) {
    RunOutcome Got =
        runWith(Interp, "function r = g(n)\n" + Errors[I], "g", intArgs({4}), 1);
    EXPECT_TRUE(Got.Threw) << Errors[I];
    EXPECT_NE(Got.ErrorMessage.find(
                  "Input to EIG must not contain NaN or Inf."),
              std::string::npos)
        << Got.ErrorMessage;
  }
}

TEST(Backend, MatVecProducts) {
  checkSoundness("function s = f(n)\nA = zeros(n, n);\n"
                 "for i = 1:n\nfor j = 1:n\nA(i, j) = 1 / (i + j);\nend\nend\n"
                 "x = ones(n, 1);\ny = A * x;\nz = A * y + 2 * x;\n"
                 "s = norm(z);\n",
                 "f", {10}, 1, /*Native=*/true);
}

TEST(Backend, RecursionFibonacci) {
  checkSoundness("function r = f(n)\nif n <= 1\nr = n;\nelse\n"
                 "r = f(n - 1) + f(n - 2);\nend\n",
                 "f", {12});
}

TEST(Backend, MutualCallsWithSubfunctions) {
  checkSoundness("function r = f(n)\nr = helper(n) + helper(n + 1);\n"
                 "function h = helper(x)\nh = x * x + inner(x);\n"
                 "function v = inner(x)\nv = x + 1;\n",
                 "f", {5});
}

TEST(Backend, MultipleOutputs) {
  checkSoundness("function [a, b, c] = f(n)\nv = [3 1 2] * n;\n"
                 "[a, b] = max(v);\nc = numel(v);\n",
                 "f", {4}, 3, /*Native=*/true);
}

TEST(Backend, EarlyReturn) {
  checkSoundness("function r = f(n)\nr = -1;\nif n > 3\nreturn;\nend\n"
                 "r = n * 2;\n",
                 "f", {5});
}

TEST(Backend, StringsAndPrintf) {
  checkSoundness("function r = f(n)\nfor k = 1:n\n"
                 "fprintf('%d squared is %d\\n', k, k * k);\nend\n"
                 "disp('done');\nr = n;\n",
                 "f", {3});
}

TEST(Backend, ShortCircuitSemantics) {
  // The right operand must not evaluate (it would divide by zero and
  // print); both paths must agree.
  checkSoundness("function r = f(n)\nr = 0;\n"
                 "if n > 100 && probe(n) > 0\nr = 1;\nend\n"
                 "if n > 0 || probe(n) > 0\nr = r + 2;\nend\n"
                 "function p = probe(x)\nfprintf('probed\\n');\np = 1 / (x - x);\n",
                 "f", {5});
}

TEST(Backend, RandStreamIdenticalAcrossPaths) {
  checkSoundness("function s = f(n)\nA = rand(n, n);\nv = rand(1, n);\n"
                 "s = sum(sum(A)) + sum(v) + rand;\n",
                 "f", {7});
}

TEST(Backend, ScalarRandDrawsInTheInterpretersOrder) {
  // A bare rand is one FRand; no optimization may drop, merge, hoist or
  // reorder a draw, and the statement rand(), which keeps its call,
  // interleaves with FRand draws on one generator.
  const char *Cases[] = {
      // A dead draw, in the loop and after it.
      "function s = f(n)\ns = 0;\nfor k = 1:n\nr = rand;\n"
      "s = s + rand;\nend\nr = rand;\ns = s + rand\n",
      // Two draws in one expression, once and per step.
      "function s = f(n)\ns = rand - rand\nfor k = 1:n\n"
      "s = s + (rand - rand) * k;\nend\n",
      // A draw with no operands in a loop body looks loop-invariant.
      "function s = f(n)\ns = 0;\nc = 2;\nfor k = 1:n\nx = rand * c;\n"
      "s = s + x;\nend\ns\n",
      // rand() is the same draw.
      "function s = f(n)\ns = 0;\nfor k = 1:n\ns = s + rand() * k;\nend\n"
      "t = rand()\n",
      // The statement forms, shown and suppressed.
      "function s = f(n)\nrand\nrand;\ns = rand;\nfor k = 1:n\nrand;\n"
      "rand();\ns = s + rand;\nend\nrand\nrand()\n",
  };
  for (const char *Src : Cases) {
    SCOPED_TRACE(Src);
    checkSoundness(Src, "f", {5}, 1, /*Native=*/true);
  }
}

TEST(Backend, NegativeSqrtGoesComplex) {
  checkSoundness("function s = f(n)\nx = sqrt(-n);\ns = imag(x);\n", "f", {9});
}

TEST(Backend, SubscriptErrorAgrees) {
  checkSoundness("function r = f(n)\nv = zeros(n, 1);\nr = v(n + 1);\n", "f",
                 {4}, 1, /*Native=*/true);
}

/// The out-of-range reads whose error text every executor must share with
/// the interpreter, byte for byte: linear reads past the end and at 0 of a
/// 1x3, and 2-D reads past a 3x3's rows, columns and both (row first).
const char *kOobLinear = "function r = f(k)\nx = [1 2 3];\nr = x(k);\n";
const char *kOob2D = "function r = f(i, j)\nA = [1 2 3; 4 5 6; 7 8 9];\n"
                     "r = A(i, j);\n";
const std::vector<std::pair<const char *, std::vector<double>>> kOobCases = {
    {kOobLinear, {7}}, {kOobLinear, {0}}, {kOob2D, {4, 1}},
    {kOob2D, {1, 4}},  {kOob2D, {4, 4}}};

TEST(Backend, OutOfRangeErrorTextIsTheInterpreters) {
  for (const auto &[Src, Args] : kOobCases) {
    EngineOptions Interp;
    Interp.Policy = CompilePolicy::InterpretOnly;
    RunOutcome Expected = runWith(Interp, Src, "f", intArgs(Args), 1);
    ASSERT_TRUE(Expected.Threw) << Src;
    for (CompilePolicy P : {CompilePolicy::Jit, CompilePolicy::Falcon,
                            CompilePolicy::Mcc}) {
      EngineOptions O;
      O.Policy = P;
      RunOutcome Got = runWith(O, Src, "f", intArgs(Args), 1);
      EXPECT_TRUE(Got.Threw) << Src;
      EXPECT_EQ(Got.ErrorMessage, Expected.ErrorMessage)
          << Src << " policy " << int(P);
    }
  }
}

TEST(Backend, UndefinedOutputErrorAgrees) {
  checkSoundness("function r = f(n)\nif n > 100\nr = 1;\nend\n", "f", {3});
}

TEST(Backend, TrueAndFalseAreBuiltins) {
  // Every tier once resolved these as user functions and failed alike, so
  // the interpreter's value is checked before tier agreement is.
  const char *Src = "function s = f(n)\ns = 0;\n"
                    "if true\ns = n + false;\nend\n"
                    "t = false;\nif t\ns = -1;\nend\n"
                    "s = s * 2 - false + true;\n";
  EngineOptions Interp;
  Interp.Policy = CompilePolicy::InterpretOnly;
  RunOutcome Expected = runWith(Interp, Src, "f", intArgs({4}), 1);
  ASSERT_FALSE(Expected.Threw) << Expected.ErrorMessage;
  ASSERT_EQ(Expected.Results.size(), 1u);
  EXPECT_EQ(Expected.Results[0].scalarValue(), 9.0);
  checkSoundness(Src, "f", {4}, 1, /*Native=*/true);
}

TEST(Backend, GrowMatrixTwoDim) {
  checkSoundness("function s = f(n)\nA = 0;\nA(n, n) = 5;\n"
                 "s = numel(A) + A(n, n) + A(1, 1);\n",
                 "f", {7}, 1, /*Native=*/true);
  // Rows and columns grow by different amounts.
  checkSoundness("function A = f(n)\nA = zeros(2, 3);\nA(n, n + 2) = 5;\n"
                 "A(1, n + 4) = 2;\n",
                 "f", {4}, 1, /*Native=*/true);
}

TEST(Backend, TransposeAndDot) {
  checkSoundness("function s = f(n)\nv = (1:n)';\ns = v' * v + dot(v, v);\n",
                 "f", {9});
}

TEST(Backend, LogicalIndexing) {
  checkSoundness("function s = f(n)\nv = 1:n;\nm = v(v > 3);\n"
                 "v(v < 3) = 0;\ns = sum(m) + sum(v);\n",
                 "f", {10}, 1, /*Native=*/true);
}

TEST(Backend, CallByValueThroughCompiledCode) {
  checkSoundness("function s = f(n)\na = zeros(1, n);\nb = touch(a);\n"
                 "s = sum(a) + b;\n"
                 "function r = touch(v)\nv(1) = 99;\nr = v(1);\n",
                 "f", {5});
}

TEST(Backend, ModRemFloorInLoop) {
  checkSoundness("function s = f(n)\ns = 0;\nfor k = 1:n\n"
                 "s = s + mod(k, 3) + rem(k, 4) + floor(k / 2) + "
                 "ceil(k / 3);\nend\n",
                 "f", {25});
}

TEST(Backend, DownwardAndFractionalRanges) {
  checkSoundness("function s = f(n)\ns = 0;\nfor k = n:-1:1\ns = s + k;\nend\n"
                 "for t = 0:0.25:1\ns = s + t;\nend\n",
                 "f", {10});
}

TEST(Backend, TrigPipeline) {
  checkSoundness("function s = f(n)\ns = 0;\nfor k = 1:n\n"
                 "s = s + sin(k) * cos(k) + atan2(k, n) + exp(-k);\nend\n",
                 "f", {15});
}

//===----------------------------------------------------------------------===//
// Small fixed-shape vectors in registers: every executor, native included
//===----------------------------------------------------------------------===//

TEST(VectorHome, PermutationReadsBeforeItWrites) {
  // Each right-hand side reads elements the same assignment overwrites.
  checkSoundness("function [v, w] = f(n)\nv = [1 2];\nw = [1 2 3];\n"
                 "for k = 1:n\nv = [v(2), v(1) + k];\n"
                 "w = [w(3), w(1), w(2)];\nw = [w(2), w(2), w(1) * 2];\n"
                 "end\n",
                 "f", {7}, 2, /*Native=*/true);
}

TEST(VectorHome, DefinitionsJoinAcrossBranches) {
  // fractal's shape: one of three register-built literals per step, an
  // integer-valued literal before the loop, and scalars read back out.
  const char *Src =
      "function [s, p] = f(n)\npx = 0;\npy = 0;\ns = 0;\np = [0 1];\n"
      "for k = 1:n\nr = mod(k * 7, 10) / 10;\n"
      "if r < 0.2\np = [0.5 * px, 0.16 * py];\n"
      "elseif r < 0.7\np = [0.85 * px + 0.04 * py, -0.04 * px + 0.85 * py + 1.6];\n"
      "else\np = [-0.15 * px + 0.28 * py, 0.26 * px + 0.24 * py + 0.44];\n"
      "end\npx = p(1);\npy = p(2);\ns = s + px - py;\nend\n";
  checkSoundness(Src, "f", {0}, 2);
  checkSoundness(Src, "f", {40}, 2, /*Native=*/true);
}

TEST(VectorHome, UnrollCapBoundary) {
  // A 3x3 sits at the unroll cap and lives in registers; a 1x10 is over it
  // and stays boxed.
  checkSoundness("function [s, M, z] = f(a)\nM = [a, 1, 2; 3, a, 4; 5, 6, a];\n"
                 "z = [1 2 3 4 5 6 7 8 9 a];\n"
                 "for k = 1:a\nM = M .* 0.5 + M / k;\nz = z * 2 - k;\nend\n"
                 "s = M(2, 3) + M(3, 1) + M(7) + z(10) + z(1);\n",
                 "f", {5}, 3, /*Native=*/true);
}

TEST(VectorHome, EscapesMaterializeTheArray) {
  // Four register vectors built in the loop, each boxed again after it: a
  // displays its integer literal in a real slot, b goes into a builtin and
  // displays as an assignment, c displays bare and goes into a user
  // function (inlined, and a real call under jit-noinline), d is an output.
  // No escape sits in the loop, and none has more escapes than
  // definitions, so all four stay in registers.
  checkSoundness("function [t, d] = f(n)\nx = n + 1;\na = [n, x]\n"
                 "b = [n, 1];\nc = [1, n];\nd = [2, n];\n"
                 "for k = 1:n\na = [a(2), a(1) + a(2)] * 0.5;\n"
                 "b = [b(2), b(1) + b(2)];\nc = [c(2), c(1) - c(2)];\n"
                 "d = d * 0.5 + k;\nend\n"
                 "t = a(1) + sum(b);\nb = b * 0.5\nc\nt = t + scale(c, n);\n"
                 "function y = scale(x, c)\ny = x(1) * c - x(2);\n",
                 "f", {6}, 2, /*Native=*/true);
}

TEST(VectorHome, EndAndVariableSubscripts) {
  // r and q are read through end and a variable subscript after the loop
  // and stay in registers; p is read that way inside the loop, where each
  // read would build an array, and stays boxed.
  checkSoundness("function s = f(n)\nr = [n, 2 * n, 3 * n];\nq = [n, 1];\n"
                 "p = [1, n, 2];\ns = 0;\n"
                 "for k = 1:3\nr = r + k;\nq = [q(2), q(1)];\np = p * 2;\n"
                 "s = s + p(k) + p(end);\nend\n"
                 "s = s + r(end) + r(end - 1) + q(n - 2);\n",
                 "f", {4}, 1, /*Native=*/true);
}

TEST(VectorHome, BoxedDefinitionsStayBoxed) {
  // A loop over columns, a multiple assignment, a parameter (under
  // jit-noinline) and zeros() all define small exact arrays from boxes.
  checkSoundness("function s = f(n)\nM = [1 2 3; 4 5 6];\ns = 0;\n"
                 "for col = M\ncol = col * 2;\ns = s + col(1) * col(2);\nend\n"
                 "[v, i] = max([n 1; 2 n]);\nv = v + i;\n"
                 "z = zeros(1, 2);\nz(2) = n;\nz = z + 1;\n"
                 "s = s + v(1) + v(2) + twice(z);\n"
                 "function y = twice(x)\nx = x * 2;\ny = x(1) + x(2);\n",
                 "f", {3});
}

TEST(VectorHome, ConstantOutOfRangeReadErrorText) {
  // r(3) on a 1x2 is a constant subscript the register vector cannot
  // serve: it reads the boxed array and raises the interpreter's error.
  for (const char *Src :
       {"function s = f(n)\nr = [n, n + 1];\nr = r * 2;\ns = r(3);\n",
        "function s = f(n)\nr = [n, n + 1];\ns = r(2, 1);\n",
        "function s = f(n)\nr = [n, n + 1];\ns = r(1, 3);\n"}) {
    EngineOptions Interp;
    Interp.Policy = CompilePolicy::InterpretOnly;
    RunOutcome Expected = runWith(Interp, Src, "f", intArgs({2}), 1);
    ASSERT_TRUE(Expected.Threw) << Src;
    for (const Config &C : compiledConfigs(/*Native=*/true)) {
      RunOutcome Got = runWith(C.Opts, Src, "f", intArgs({2}), 1);
      EXPECT_TRUE(Got.Threw) << C.Name << ": " << Src;
      EXPECT_EQ(Got.ErrorMessage, Expected.ErrorMessage) << C.Name << ": "
                                                         << Src;
    }
  }
}

TEST(VectorHome, LogicalOnOnePathStaysAMask) {
  // m joins a logical and a numeric 1x3, a numeric summary: a register
  // vector would box the mask back as numbers and x(m) would read x(0).
  const char *Src = "function s = f(n)\nx = [10 20 30];\n"
                    "if n > 2\nm = [n > 2, n < 0, n > 1];\n"
                    "else\nm = [1 2 3];\n"
                    "end\ny = x(m);\ns = sum(y) + numel(y);\n";
  checkSoundness(Src, "f", {3}, 1, /*Native=*/true);
  checkSoundness(Src, "f", {1});
}

//===----------------------------------------------------------------------===//
// Repository and policy behavior
//===----------------------------------------------------------------------===//

TEST(EngineRepo, JitCompilesOncePerSkeleton) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  ASSERT_TRUE(E.addSource(
      "fib", "function r = fib(n)\nif n <= 1\nr = n;\nelse\n"
             "r = fib(n - 1) + fib(n - 2);\nend\n"));
  auto R = E.callFunction("fib", {makeValue(Value::intScalar(15))}, 1,
                          SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 610);
  // One constant-specialized version plus one generalized version; the
  // recursion must not compile one version per argument value.
  auto Versions = E.repository().versions("fib");
  ASSERT_FALSE(Versions.empty());
  EXPECT_LE(Versions.size(), 2u);
  EXPECT_LE(E.jitCompiles(), 2u);
}

TEST(EngineRepo, LocatorPrefersTighterSignature) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  ASSERT_TRUE(E.addSource("g", "function y = g(n)\ny = n + 1;\n"));
  // Two versions coexist: a generic one and a batch-optimized one for an
  // int-scalar invocation (Figure 3's multiple signatures).
  ASSERT_TRUE(E.precompileGeneric("g", 1));
  ASSERT_TRUE(E.precompileWithArgs("g", {makeValue(Value::intScalar(5))}));
  auto Versions = E.repository().versions("g");
  ASSERT_FALSE(Versions.empty());
  EXPECT_EQ(Versions.size(), 2u);

  // An int-scalar invocation picks the tighter (optimized) version...
  TypeSignature IntSig({Type::ofValue(Value::intScalar(5))});
  CompiledObjectPtr Hit = E.repository().lookup("g", IntSig);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Mode, CodeGenMode::Optimized);
  // ...a matrix invocation only matches the generic one.
  TypeSignature MatSig({Type::ofValue(Value::zeros(2, 2))});
  CompiledObjectPtr Generic = E.repository().lookup("g", MatSig);
  ASSERT_NE(Generic, nullptr);
  EXPECT_EQ(Generic->Mode, CodeGenMode::Generic);
  // A repository hit means no further compilation.
  auto Args = std::vector<ValuePtr>{makeValue(Value::intScalar(5))};
  E.callFunction("g", Args, 1, SourceLoc());
  EXPECT_EQ(E.jitCompiles(), 0u);
}

TEST(EngineRepo, SpeculativeHitAvoidsJit) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  Engine E(O);
  ASSERT_TRUE(E.addSource(
      "sumto", "function s = sumto(n)\ns = 0;\nfor k = 1:n\ns = s + k;\nend\n"));
  ASSERT_TRUE(E.precompileSpeculative("sumto"));
  auto R = E.callFunction("sumto", {makeValue(Value::intScalar(100))}, 1,
                          SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 5050);
  // The speculative version matched: no JIT compile happened.
  EXPECT_EQ(E.jitCompiles(), 0u);
}

TEST(EngineRepo, SpeculativeMissFallsBackToJit) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  Engine E(O);
  // The speculator guesses n is an int scalar; invoking with a matrix is
  // rejected by the signature check, and the JIT kicks in (Section 3.6).
  ASSERT_TRUE(E.addSource(
      "total", "function s = total(n)\ns = 0;\nfor k = 1:n\ns = s + k;\nend\n"));
  ASSERT_TRUE(E.precompileSpeculative("total"));
  Value M = Value::zeros(1, 3);
  M.reRef(0) = 5; // colon uses the first element only
  auto R = E.callFunction("total", {makeValue(std::move(M))}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 15);
  EXPECT_GE(E.jitCompiles(), 1u);
}

TEST(EngineRepo, SnooperPicksUpSources) {
  std::string Dir = ::testing::TempDir() + "/majic_snoop";
  std::filesystem::create_directories(Dir);
  {
    std::ofstream F(Dir + "/twice.m");
    F << "function y = twice(x)\ny = 2 * x;\n";
  }
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  Engine E(O);
  E.watchDirectory(Dir);
  EXPECT_EQ(E.snoop(), 1u);
  EXPECT_TRUE(E.knowsFunction("twice"));
  // The snooped function was speculatively compiled ahead of time (on the
  // background workers; drain to observe the published object).
  E.drainCompiles();
  EXPECT_GE(E.repository().totalObjects(), 1u);
  auto R = E.callFunction("twice", {makeValue(Value::intScalar(21))}, 1,
                          SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 42);
  // Unchanged files are not reported again.
  EXPECT_EQ(E.snoop(), 0u);
}

TEST(EngineRepo, InteractiveWorkspacePersists) {
  Engine E;
  E.runScript("x = 10;");
  E.runScript("y = x + 5;");
  ValuePtr Y = E.workspaceVar("y");
  ASSERT_NE(Y, nullptr);
  EXPECT_DOUBLE_EQ(Y->scalarValue(), 15);
  std::string Out = E.runScript("disp(y + 1)");
  EXPECT_EQ(Out, "16\n");
}

TEST(EngineRepo, ScriptCallsCompiledFunctions) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  ASSERT_TRUE(E.addSource("sq", "function y = sq(x)\ny = x * x;\n"));
  E.runScript("r = sq(9);");
  EXPECT_DOUBLE_EQ(E.workspaceVar("r")->scalarValue(), 81);
  EXPECT_GE(E.jitCompiles(), 1u);
}

//===----------------------------------------------------------------------===//
// Engine boundary errors (parity between compiled and interpreted paths)
//===----------------------------------------------------------------------===//

TEST(EngineBoundary, TooManyInputsRejectedOnCompiledPath) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  ASSERT_TRUE(E.addSource("f", "function y = f(x)\ny = x;\n"));
  try {
    E.callFunction("f", {makeScalar(1), makeScalar(2)}, 1, SourceLoc());
    FAIL() << "expected MatlabError";
  } catch (const MatlabError &Err) {
    EXPECT_NE(Err.message().find("too many input arguments"),
              std::string::npos);
  }
}

TEST(EngineBoundary, TooManyOutputsRejected) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  ASSERT_TRUE(E.addSource("f", "function y = f(x)\ny = x;\n"));
  try {
    E.callFunction("f", {makeScalar(1)}, 3, SourceLoc());
    FAIL() << "expected MatlabError";
  } catch (const MatlabError &Err) {
    EXPECT_NE(Err.message().find("too many output arguments"),
              std::string::npos);
  }
}

TEST(EngineBoundary, BadFileDoesNotPoisonLaterLoads) {
  Engine E;
  EXPECT_FALSE(E.addSource("bad", "function y = bad(\n"));
  // A later, valid file must still load and run.
  ASSERT_TRUE(E.addSource("good", "function y = good(x)\ny = x + 1;\n"));
  auto R = E.callFunction("good", {makeScalar(4)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 5);
}

TEST(EngineBoundary, ZeroOutputFunctionCallableAsStatement) {
  // MATLAB allows statement calls to functions that return nothing; both
  // execution paths must too.
  std::string Src = "function r = main(n)\nshout(n);\nr = n;\n"
                    "function shout(x)\nfprintf('x=%d\\n', x);\n";
  for (CompilePolicy Pol :
       {CompilePolicy::InterpretOnly, CompilePolicy::Jit}) {
    EngineOptions O;
    O.Policy = Pol;
    O.InlineCalls = false; // keep the call visible to the call machinery
    Engine E(O);
    ASSERT_TRUE(E.addSource("main", Src));
    auto R = E.callFunction("main", {makeValue(Value::intScalar(7))}, 1,
                            SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 7) << compilePolicyName(Pol);
    EXPECT_EQ(E.context().output(), "x=7\n") << compilePolicyName(Pol);
    // The *displayed* form (no semicolon) also runs, printing the callee's
    // own output but no "ans =" since nothing is returned.
    E.context().clearOutput();
    std::string Out = E.runScript("shout(3)\n");
    EXPECT_EQ(Out, "x=3\n") << compilePolicyName(Pol);
  }
}

TEST(EngineBoundary, RunawayRecursionGuarded) {
  std::vector<EngineOptions> Tiers(1);
#ifndef __SANITIZE_THREAD__
  if (hostCompilerAvailable()) {
    // Every level is a native run calling the next through the host.
    EngineOptions Native;
    Native.BackgroundCompileThreads = 0;
    Native.NativeTier = true;
    Native.NativeHotThreshold = 1;
    Tiers.push_back(Native);
  }
#endif
  for (const EngineOptions &O : Tiers) {
    Engine E(O);
    ASSERT_TRUE(
        E.addSource("spin", "function y = spin(n)\ny = spin(n + 1);\n"));
    try {
      E.callFunction("spin", {makeScalar(1)}, 1, SourceLoc());
      FAIL() << "expected MatlabError";
    } catch (const MatlabError &Err) {
      EXPECT_EQ(Err.message(), "maximum recursion depth exceeded");
    }
    EXPECT_EQ(E.nativeDirectCalls(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// Recursion: a self-call with an int scalar result becomes CallSelf (on the
// VM, the resolver's path with the result in a register; in machine code, a
// direct C call). Every case runs on the interpreter, every VM
// configuration and the native tier, with inlining on and off.
//===----------------------------------------------------------------------===//

std::vector<Config> recursionConfigs() {
  std::vector<Config> Configs = compiledConfigs(/*Native=*/true);
  for (size_t I = 0, N = Configs.size(); I != N; ++I)
    if (Configs[I].Opts.NativeTier) {
      Config NoInline = Configs[I];
      NoInline.Name = "native-noinline";
      NoInline.Opts.InlineCalls = false;
      Configs.push_back(NoInline);
    }
  return Configs;
}

void checkRecursion(const std::string &Source, const std::string &Fn,
                    const std::vector<Value> &Args,
                    const std::function<void(EngineOptions &)> &Adjust =
                        nullptr) {
  static const std::vector<Config> Configs = recursionConfigs();
  checkSoundnessOn(Configs, Source, Fn, Args, 1, Adjust);
}

std::string mlibText(const std::string &Name) {
  std::ifstream In(mlibDirectory() + "/" + Name + ".m");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(Recursion, MlibProgramsWithIntAndRealArguments) {
  for (double N : {0.0, 1.0, 12.0})
    checkRecursion(mlibText("fibonacci"), "fibonacci", intArgs({N}));
  checkRecursion(mlibText("fibonacci"), "fibonacci", {Value::scalar(11)});
  checkRecursion(mlibText("fibonacci"), "fibonacci", {Value::scalar(6.5)});
  checkRecursion(mlibText("ackermann"), "ackermann", intArgs({2, 3}));
  checkRecursion(mlibText("ackermann"), "ackermann", intArgs({1, 0}));
  checkRecursion(mlibText("ackermann"), "ackermann",
                 {Value::scalar(2), Value::scalar(2)});
  checkRecursion(mlibText("ackermann"), "ackermann",
                 {Value::scalar(1), Value::intScalar(4)});
}

TEST(Recursion, VectorResultStaysOnTheHostPath) {
  checkRecursion("function v = f(n)\n"
                 "if n <= 0\n  v = [1 2];\nelse\n  v = f(n - 1) + n;\nend\n",
                 "f", intArgs({6}));
}

TEST(Recursion, MutualRecursion) {
  checkRecursion("function r = f(n)\n"
                 "if n <= 0\n  r = 1;\nelse\n  r = g(n - 1) * 2;\nend\n"
                 "function r = g(n)\n"
                 "if n <= 0\n  r = 3;\nelse\n  r = f(n - 1) + 1;\nend\n",
                 "f", intArgs({9}));
}

TEST(Recursion, OutOfRangeIndexAtDepthTen) {
  checkRecursion("function r = f(n)\n"
                 "v = [1 2 3];\n"
                 "if n == 0\n  r = v(n + 4);\nelse\n  r = f(n - 1) + 1;\nend\n",
                 "f", intArgs({9}));
}

TEST(Recursion, UnassignedOutputDeepInTheChain) {
  // The output stays boxed, so a direct call checks the callee assigned
  // it. f(5) -> 3 -> 1 -> -1 assigns nothing: the text names the output.
  const char *Src = "function r = f(n)\n"
                    "if n > 0\n  r = f(n - 2) + 1;\nelseif n == 0\n"
                    "  r = 0;\nend\n";
  checkRecursion(Src, "f", intArgs({5}));
  // The inlined clone of f does not compile (it is interpreted on every
  // tier), so the call that returns runs without inlining to be native.
  checkRecursion(Src, "f", intArgs({6}),
                 [](EngineOptions &O) { O.InlineCalls = false; });
}

TEST(Recursion, DeoptDeepInADirectChain) {
  // sqrt of a negative value at depth 5: optimistic code deoptimizes, the
  // native module is quarantined, and the answer is the complex one.
  checkRecursion("function r = f(n)\n"
                 "if n == 0\n  r = floor(sqrt(n - 5));\n"
                 "else\n  r = f(n - 1) + 1;\nend\n",
                 "f", intArgs({4}));
}

TEST(Recursion, DirectCallsFreeTheirBoxes) {
  // Each call allocates a 16 KB array. g(16) makes 3,193 calls, 51 MB of
  // arrays over the run; the levels running at once hold 270 KB, under the
  // 8 MB limit on every tier.
  auto Limited = [](EngineOptions &O) { O.Limits.MaxAllocBytes = 8u << 20; };
  checkRecursion("function r = g(n)\n"
                 "v = zeros(1, 2000);\n"
                 "if n <= 1\n  r = n;\n"
                 "else\n  r = g(n - 1) + g(n - 2) + numel(v) - 2000;\nend\n",
                 "g", intArgs({16}), Limited);
  // The output is not definitely assigned, so the result comes back boxed
  // too. The inlined clone of g does not compile, so g runs without
  // inlining to be native.
  checkRecursion("function r = g(n)\n"
                 "v = zeros(1, 2000);\n"
                 "if n <= 1\n  r = n;\nend\n"
                 "if n > 1\n  r = g(n - 1) + g(n - 2) + numel(v) - 2000;\nend\n",
                 "g", intArgs({16}), [&](EngineOptions &O) {
                   Limited(O);
                   O.InlineCalls = false;
                 });
}

TEST(Recursion, DeepDirectChainMeetsTheDepthLimit) {
  // Without inlining every level is a call: 990 levels fit under a
  // MaxCallDepth of 1000 on every tier, 1,005 fail at the limit.
  const char *Src = "function r = d(n)\n"
                    "if n <= 0\n  r = 0;\nelse\n  r = d(n - 1) + 1;\nend\n";
  auto Limited = [](EngineOptions &O) {
    O.InlineCalls = false;
    O.MaxCallDepth = 1000;
  };
  checkRecursion(Src, "d", intArgs({990}), Limited);
  checkRecursion(Src, "d", intArgs({1005}), Limited);
}

TEST(Recursion, RunawayDepthErrorAtTheSameLevel) {
  // Each level prints before it recurses, so the output shows where the
  // depth error fired. Inlined levels do not count toward MaxCallDepth, so
  // the levels are compared without inlining.
  auto Shallow = [](EngineOptions &O) {
    O.MaxCallDepth = 25;
    O.InlineCalls = false;
  };
  checkRecursion("function r = deep(n)\n"
                 "disp(n);\n"
                 "if n < 0\n  r = 0;\nelse\n  r = deep(n + 1) + 1;\nend\n",
                 "deep", intArgs({1}), Shallow);
  checkRecursion("function y = spin(n)\ndisp(n);\ny = spin(n + 1);\n",
                 "spin", intArgs({1}), Shallow);
}

//===----------------------------------------------------------------------===//
// VM frames: each VM nesting depth reuses one frame across calls. Cases
// that check results run the same call sequence on the interpreter (the
// oracle) and on compiled code with inlining off, so each call really
// enters the VM.
//===----------------------------------------------------------------------===//

/// One call's observable outcome: its results, or its error text.
struct CallOutcome {
  std::vector<Value> Results;
  std::string Error;
};

CallOutcome callScalars(Engine &E, const std::string &Fn,
                        std::vector<double> ScalarArgs) {
  std::vector<ValuePtr> Args;
  for (double A : ScalarArgs)
    Args.push_back(makeValue(Value::intScalar(A)));
  CallOutcome Out;
  try {
    for (const ValuePtr &R : E.callFunction(Fn, Args, 1, SourceLoc()))
      Out.Results.push_back(*R);
  } catch (const MatlabError &Err) {
    Out.Error = Err.message();
  }
  return Out;
}

/// Runs \p Calls in order on an interpreter engine and on a JIT engine with
/// inlining off, expecting identical results and error text call by call.
void expectCallsMatchInterpreter(
    const std::string &Source, const std::string &Fn,
    const std::vector<std::vector<double>> &Calls,
    EngineOptions Base = EngineOptions()) {
  EngineOptions Ref = Base;
  Ref.Policy = CompilePolicy::InterpretOnly;
  EngineOptions Jit = Base;
  Jit.Policy = CompilePolicy::Jit;
  Jit.InlineCalls = false;
  Jit.BackgroundCompileThreads = 0;
  Engine RefE(Ref), JitE(Jit);
  ASSERT_TRUE(RefE.addSource(Fn, Source)) << RefE.diagnostics();
  ASSERT_TRUE(JitE.addSource(Fn, Source)) << JitE.diagnostics();
  for (size_t K = 0; K != Calls.size(); ++K) {
    CallOutcome Want = callScalars(RefE, Fn, Calls[K]);
    CallOutcome Got = callScalars(JitE, Fn, Calls[K]);
    std::string Ctx = "call " + std::to_string(K);
    EXPECT_EQ(Want.Error, Got.Error) << Ctx;
    ASSERT_EQ(Want.Results.size(), Got.Results.size()) << Ctx;
    for (size_t I = 0; I != Want.Results.size(); ++I)
      expectSameValue(Want.Results[I], Got.Results[I], Ctx);
  }
  EXPECT_LE(JitE.vmRetainedFrames(), VM::kRetainedFrames);
}

const char *kDeepSource = "function r = deep(n, bad)\n"
                          "if n == 0\n"
                          "  if bad\n"
                          "    r = [1 2] + [1 2 3];\n"
                          "  else\n"
                          "    r = 0;\n"
                          "  end\n"
                          "else\n"
                          "  r = deep(n - 1, bad) + n;\n"
                          "end\n";

TEST(VmFrames, ErrorDeepInRecursionThenFreshCall) {
  expectCallsMatchInterpreter(kDeepSource, "deep",
                              {{300, 1}, {300, 0}, {300, 1}, {10, 0}});
}

TEST(VmFrames, RecursionLimitTextAtMaxCallDepth) {
  // MaxCallDepth nested calls run; one more raises the limit error, with
  // the interpreter's text, and leaves the engine usable.
  EngineOptions O;
  O.MaxCallDepth = 50;
  expectCallsMatchInterpreter(kDeepSource, "deep",
                              {{49, 0}, {50, 0}, {10, 0}, {50, 1}}, O);
  O.InlineCalls = false;
  Engine E(O);
  ASSERT_TRUE(E.addSource("deep", kDeepSource));
  EXPECT_EQ(callScalars(E, "deep", {50, 0}).Error,
            "maximum recursion depth exceeded");
}

TEST(VmFrames, DeoptRetryBelowTheTopFrame) {
  // The guard fails five frames down (cos(9) * 3 - 2 < 0): the optimistic
  // frame unwinds, the pessimistic replacement retries at that depth, and
  // the frames above continue with its result.
  const char *Src = "function s = g(n)\n"
                    "if n > 0\n"
                    "  s = g(n - 1) + 1;\n"
                    "else\n"
                    "  x = cos(n + 9) * 3 - 2;\n"
                    "  y = sqrt(x);\n"
                    "  s = imag(y) + real(y);\n"
                    "end\n";
  expectCallsMatchInterpreter(Src, "g", {{4}, {4}, {0}});
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.InlineCalls = false;
  O.BackgroundCompileThreads = 0;
  Engine E(O);
  ASSERT_TRUE(E.addSource("g", Src));
  callScalars(E, "g", {4});
  EXPECT_EQ(E.deoptimizations(), 1u);
}

TEST(VmFrames, CalleeWritesToItsArgumentCopy) {
  const char *Src = "function r = caller(n)\n"
                    "a = [1 2 3] * n;\n"
                    "b = poke(a);\n"
                    "c = poke(b);\n"
                    "r = [a b c];\n"
                    "function a = poke(a)\n"
                    "a(2) = a(2) + 99;\n";
  expectCallsMatchInterpreter(Src, "caller", {{5}, {7}});
}

TEST(VmFrames, FinishedCallsKeepNoValuesAlive) {
  // Frames drop their registers on return and on unwind, so the tracked
  // bytes fall back to where they were once the results are released.
  const char *Src = "function r = build(n)\n"
                    "a = zeros(n, n);\n"
                    "b = a + 1;\n"
                    "r = sum(sum(b)) + inner(n);\n"
                    "function s = inner(n)\n"
                    "t = ones(n, 1) * 2;\n"
                    "s = sum(t);\n";
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.InlineCalls = false;
  O.BackgroundCompileThreads = 0;
  Engine E(O);
  ASSERT_TRUE(E.addSource("build", Src));
  ASSERT_TRUE(E.addSource("deep", kDeepSource));
  callScalars(E, "build", {40}); // compile first
  callScalars(E, "deep", {30, 1});
  uint64_t Before = mem::liveBytes();
  {
    CallOutcome R = callScalars(E, "build", {40});
    ASSERT_EQ(R.Results.size(), 1u);
    EXPECT_DOUBLE_EQ(R.Results[0].scalarValue(), 40 * 40 + 80);
  }
  EXPECT_EQ(mem::liveBytes(), Before);
  EXPECT_NE(callScalars(E, "deep", {30, 1}).Error, "");
  EXPECT_EQ(mem::liveBytes(), Before);
}

TEST(VmFrames, RetainedFramesBoundedAfterDeepRecursion) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.InlineCalls = false;
  O.BackgroundCompileThreads = 0;
  Engine E(O);
  ASSERT_TRUE(E.addSource("deep", kDeepSource));
  CallOutcome R = callScalars(E, "deep", {3990, 0});
  ASSERT_EQ(R.Results.size(), 1u) << R.Error;
  EXPECT_DOUBLE_EQ(R.Results[0].scalarValue(), 3990.0 * 3991 / 2);
  EXPECT_LE(E.vmRetainedFrames(), VM::kRetainedFrames);
  // The trimmed frame set still serves a deep call.
  R = callScalars(E, "deep", {500, 0});
  ASSERT_EQ(R.Results.size(), 1u) << R.Error;
  EXPECT_DOUBLE_EQ(R.Results[0].scalarValue(), 500.0 * 501 / 2);
}

//===----------------------------------------------------------------------===//
// Deoptimization (optimistic real-domain math guards)
//===----------------------------------------------------------------------===//

TEST(Deopt, GuardFailureRecompilesAndMatchesInterpreter) {
  // sqrt of a data-dependent negative: optimistic code deopts, the retry
  // produces the interpreter's complex result.
  checkSoundness("function s = f(n)\nx = 5 - n;\ny = sqrt(x);\n"
                 "s = real(y) + 2 * imag(y);\n",
                 "f", {9});
}

TEST(Deopt, CounterAndReplacementVersion) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  // cos(n)*3 - 2 has the static range [-5, 1]: the sign is unknown at
  // compile time, so sqrt is compiled optimistically real with a guard.
  ASSERT_TRUE(E.addSource(
      "g", "function s = g(n)\nx = cos(n) * 3 - 2;\ny = sqrt(x);\n"
           "s = imag(y);\n"));
  auto R = E.callFunction("g", {makeValue(Value::intScalar(9))}, 1,
                          SourceLoc());
  double Expected = std::sqrt(-(std::cos(9.0) * 3 - 2)); // arg is negative
  EXPECT_NEAR(R[0]->scalarValue(), Expected, 1e-12);
  EXPECT_EQ(E.deoptimizations(), 1u);
  // The pessimistic replacement handles later calls without deopting.
  auto R2 = E.callFunction("g", {makeValue(Value::intScalar(9))}, 1,
                           SourceLoc());
  EXPECT_NEAR(R2[0]->scalarValue(), Expected, 1e-12);
  EXPECT_EQ(E.deoptimizations(), 1u);
}

TEST(Deopt, NoDeoptWhenGuardsHold) {
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  Engine E(O);
  ASSERT_TRUE(E.addSource(
      "h", "function s = h(n)\ns = 0;\nfor k = 1:n\ns = s + sqrt(s + "
           "k);\nend\n"));
  auto R = E.callFunction("h", {makeValue(Value::intScalar(50))}, 1,
                          SourceLoc());
  EXPECT_GT(R[0]->scalarValue(), 0);
  EXPECT_EQ(E.deoptimizations(), 0u);
}

/// Runs a function that prints and draws before an optimistic sqrt of an
/// operand that depends on the draw fails (cos hides its sign from
/// inference), under \p O. The generator starts where the first draw fails
/// the guard and the second passes it, so a retry that did not start from
/// the snapshot would draw the second, pass the guard and return another
/// value. The retry must duplicate neither the print nor the draw, and the
/// one deopt must be counted by the tier whose guard failed: \p VmDeopts
/// and \p NativeDeopts.
void expectRollbackOnRetry(const EngineOptions &O, uint64_t VmDeopts,
                           uint64_t NativeDeopts) {
  std::string Src = "function s = f(n)\nfprintf('once\\n');\nr = rand;\n"
                    "y = sqrt(cos(n * r));\ns = r + imag(y);\n";
  auto FailsGuard = [](double R) { return std::cos(4 * R) < 0; };
  uint64_t Seed = 1;
  for (;; ++Seed) {
    Rng G(Seed);
    double First = G.nextDouble();
    if (FailsGuard(First) && !FailsGuard(G.nextDouble()))
      break;
  }
  auto Call = [&](Engine &E) {
    E.context().Rand.reseed(Seed);
    return E.callFunction("f", {makeValue(Value::intScalar(4))}, 1,
                          SourceLoc());
  };

  EngineOptions Interp;
  Interp.Policy = CompilePolicy::InterpretOnly;
  Engine Ref(Interp);
  ASSERT_TRUE(Ref.addSource("f", Src)) << Ref.diagnostics();
  auto Want = Call(Ref);
  ASSERT_EQ(Want.size(), 1u);

  Engine E(O);
  ASSERT_TRUE(E.addSource("f", Src)) << E.diagnostics();
  auto R = Call(E);
  EXPECT_EQ(E.deoptimizations(), VmDeopts);
  EXPECT_EQ(E.nativeDeopts(), NativeDeopts);
  EXPECT_EQ(E.context().output(), "once\n");
  ASSERT_EQ(R.size(), 1u);
  expectSameValue(*Want[0], *R[0], "retry");
}

TEST(Deopt, OutputAndRandRolledBackOnRetry) {
  EngineOptions Jit;
  Jit.Policy = CompilePolicy::Jit;
  expectRollbackOnRetry(Jit, /*VmDeopts=*/1, /*NativeDeopts=*/0);
}

TEST(Deopt, NativeOutputAndRandRolledBackOnRetry) {
  // The same in machine code: the module prints and draws through its
  // callbacks before the guard fails. The deopt goes straight to the
  // pessimistic recompile - the VM never re-runs the optimistic code - so
  // only the native tier's own restore of the output and the generator
  // stands between the retry and a second print or the second draw.
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 0;
  O.NativeTier = true;
  O.NativeHotThreshold = 1;
  expectRollbackOnRetry(O, /*VmDeopts=*/0, /*NativeDeopts=*/1);
}

//===----------------------------------------------------------------------===//
// Performance-shape sanity (not timing: instruction counts)
//===----------------------------------------------------------------------===//

TEST(BackendPerf, CheckRemovalChangesEmittedOpcodes) {
  // With range propagation the loop accesses compile to unchecked element
  // ops; without it every access carries the subscript check (Figure 7's
  // "no ranges" mechanism, observed structurally in the IR).
  std::string Src = "function s = f(n)\nA = zeros(n, 1);\n"
                    "for k = 1:n\nA(k) = k;\nend\n"
                    "s = 0;\nfor k = 1:n\ns = s + A(k);\nend\n";
  SourceManager SM;
  Diagnostics Diags;
  auto Mod = parseModule("f", Src, SM, Diags);
  ASSERT_NE(Mod, nullptr);
  auto Info = disambiguate(*Mod->mainFunction(), *Mod);
  TypeSignature Sig({Type::ofValue(Value::intScalar(64))});

  auto CountOps = [&](bool Ranges, Opcode Op) {
    CompileRequest Req;
    Req.FI = Info.get();
    Req.Sig = Sig;
    Req.Infer.EnableRanges = Ranges;
    auto R = compileFunction(Req);
    EXPECT_TRUE(R.has_value());
    unsigned N = 0;
    for (const Instr &In : R->Code->Code)
      N += In.Op == Op;
    return N;
  };

  // Ranges on: unchecked loads and stores, no checked ones.
  EXPECT_GT(CountOps(true, Opcode::LoadEl), 0u);
  EXPECT_EQ(CountOps(true, Opcode::LoadElChk), 0u);
  EXPECT_GT(CountOps(true, Opcode::StoreEl), 0u);
  // Ranges off: every access is checked.
  EXPECT_EQ(CountOps(false, Opcode::LoadEl), 0u);
  EXPECT_GT(CountOps(false, Opcode::LoadElChk), 0u);
  EXPECT_GT(CountOps(false, Opcode::StoreElChk), 0u);
}

TEST(BackendPerf, SpillEverythingExecutesMoreInstructions) {
  std::string Src = "function s = f(n)\ns = 0;\nfor k = 1:n\n"
                    "s = s + k * 2 - 1;\nend\n";
  EngineOptions Normal;
  Normal.Policy = CompilePolicy::Jit;
  EngineOptions SpillAll = Normal;
  SpillAll.RegAlloc.SpillEverything = true;

  uint64_t InstrNormal, InstrSpill;
  {
    Engine E(Normal);
    E.addSource("f", Src);
    E.callFunction("f", {makeValue(Value::intScalar(1000))}, 1, SourceLoc());
    InstrNormal = E.vmInstructions();
  }
  {
    Engine E(SpillAll);
    E.addSource("f", Src);
    E.callFunction("f", {makeValue(Value::intScalar(1000))}, 1, SourceLoc());
    InstrSpill = E.vmInstructions();
  }
  EXPECT_LT(InstrNormal, InstrSpill);
  EXPECT_GT(static_cast<double>(InstrSpill) / InstrNormal, 1.5);
}

TEST(BackendPerf, OptimizerShrinksLoopWork) {
  std::string Src = "function s = f(n)\ns = 0;\nfor k = 1:n\n"
                    "s = s + k * 3.5 + 2 * 7 + sin(0.5);\nend\n";
  EngineOptions Jit;
  Jit.Policy = CompilePolicy::Jit;
  EngineOptions Opt;
  Opt.Policy = CompilePolicy::Falcon;

  uint64_t InstrJit, InstrOpt;
  {
    Engine E(Jit);
    E.addSource("f", Src);
    E.callFunction("f", {makeValue(Value::intScalar(2000))}, 1, SourceLoc());
    InstrJit = E.vmInstructions();
  }
  {
    Engine E(Opt);
    E.addSource("f", Src);
    E.callFunction("f", {makeValue(Value::intScalar(2000))}, 1, SourceLoc());
    InstrOpt = E.vmInstructions();
  }
  // Constant folding + LICM + unrolling must cut dispatched instructions.
  EXPECT_LT(InstrOpt, InstrJit);
}

TEST(BackendPerf, GenericModeExecutesFarMoreWork) {
  std::string Src = "function s = f(n)\ns = 0;\nfor k = 1:n\n"
                    "s = s + k * k;\nend\n";
  uint64_t InstrJit;
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    Engine E(O);
    E.addSource("f", Src);
    E.callFunction("f", {makeValue(Value::intScalar(500))}, 1, SourceLoc());
    InstrJit = E.vmInstructions();
  }
  // mcc-style code runs boxed ops; in our VM that is fewer dispatched
  // instructions but each is a heavyweight runtime call. Time it instead:
  // JIT must beat generic by a healthy factor on scalar loops.
  EngineOptions JO;
  JO.Policy = CompilePolicy::Jit;
  Engine EJ(JO);
  EJ.addSource("f", Src);
  EngineOptions GO;
  GO.Policy = CompilePolicy::Mcc;
  Engine EG(GO);
  EG.addSource("f", Src);
  EG.precompileGeneric("f", 1);

  auto Arg = [&] { return std::vector<ValuePtr>{makeValue(Value::intScalar(200000))}; };
  // Warm both.
  EJ.callFunction("f", Arg(), 1, SourceLoc());
  EG.callFunction("f", Arg(), 1, SourceLoc());
  Timer TJ;
  EJ.callFunction("f", Arg(), 1, SourceLoc());
  double JitSec = TJ.seconds();
  Timer TG;
  EG.callFunction("f", Arg(), 1, SourceLoc());
  double GenSec = TG.seconds();
  EXPECT_LT(JitSec * 2, GenSec) << "jit=" << JitSec << " gen=" << GenSec;
  (void)InstrJit;
}

} // namespace
