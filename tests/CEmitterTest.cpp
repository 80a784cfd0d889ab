//===- tests/CEmitterTest.cpp - The Figure 3 C source generator ----------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Disambiguate.h"
#include "analysis/Inliner.h"
#include "ast/Parser.h"
#include "backend/CEmitter.h"
#include "backend/Compiler.h"
#include "engine/Corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

using namespace majic;

namespace {

struct Compiled {
  SourceManager SM;
  Diagnostics Diags;
  std::unique_ptr<Module> Mod;
  std::unique_ptr<FunctionInfo> Info;
  std::unique_ptr<IRFunction> Code;
  TypeSignature Sig;

  Compiled(const std::string &Src, std::vector<Type> Params,
           CodeGenMode Mode = CodeGenMode::Optimized) {
    Mod = parseModule("t", Src, SM, Diags);
    EXPECT_NE(Mod, nullptr) << Diags.render(SM);
    Info = disambiguate(*Mod->mainFunction(), *Mod);
    Sig = TypeSignature(std::move(Params));
    InferResult R = inferTypes(*Info, Sig);
    CodeGenOptions CG;
    CG.Mode = Mode;
    Code = generateCode(*Info, R.Ann, Sig, CG);
    EXPECT_NE(Code, nullptr);
  }

  std::string emit() { return emitCSource(*Code, Sig); }
};

TEST(CEmitter, Figure3PolyGenericUsesMlfCalls) {
  // Figure 3 bottom row: the complex-matrix signature generates boxed
  // mlfPower / mlfTimes / mlfPlus library calls.
  Compiled C("function p = poly(x)\np = x.^5 + 3*x + 2;\n",
             {Type::matrix(IntrinsicType::Complex)});
  std::string Src = C.emit();
  EXPECT_NE(Src.find("mlfDotPower"), std::string::npos) << Src;
  EXPECT_NE(Src.find("mlfTimes"), std::string::npos);
  EXPECT_NE(Src.find("mlfPlus"), std::string::npos);
  EXPECT_NE(Src.find("itype(arg0)=cplx"), std::string::npos);
}

TEST(CEmitter, Figure3PolyScalarInlines) {
  // Figure 3 middle rows: real scalar signatures inline to plain C
  // arithmetic with no mlf operator calls.
  Compiled C("function p = poly(x)\np = x.^5 + 3*x + 2;\n",
             {Type::scalar(IntrinsicType::Real)});
  std::string Src = C.emit();
  EXPECT_EQ(Src.find("mlfPlus"), std::string::npos) << Src;
  EXPECT_NE(Src.find("pow("), std::string::npos);
  EXPECT_NE(Src.find("mlfGetScalar"), std::string::npos);
  EXPECT_NE(Src.find("itype(arg0)=real"), std::string::npos);
}

TEST(CEmitter, ConstantSignatureFoldsToLiteral) {
  // Figure 3 top row: with limits <3,3>, poly(3) = 254 appears literally.
  Compiled C("function p = poly(x)\np = x.^5 + 3*x + 2;\n",
             {Type::scalar(IntrinsicType::Int, Range::constant(3))});
  OptimizeOptions OO;
  optimize(*C.Code, OO);
  std::string Src = C.emit();
  EXPECT_NE(Src.find("254"), std::string::npos) << Src;
  EXPECT_NE(Src.find("limits=<3,3>"), std::string::npos);
}

TEST(CEmitter, LoopsBecomeLabelsAndGotos) {
  Compiled C("function s = f(n)\ns = 0;\nfor k = 1:n\ns = s + k;\nend\n",
             {Type::scalar(IntrinsicType::Int)});
  std::string Src = C.emit();
  EXPECT_NE(Src.find("goto L"), std::string::npos);
  // Labels carry a null statement so one may legally precede a '}'.
  EXPECT_NE(Src.find(":;\n"), std::string::npos);
  // The loop back-edge polls the execution budget, as the VM does.
  EXPECT_NE(Src.find("mlfPoll"), std::string::npos);
}

TEST(CEmitter, ChecksAppearOnlyWithoutProof) {
  std::string Fn = "function s = f(n)\nA = zeros(n, 1);\n"
                   "for k = 1:n\nA(k) = k;\nend\ns = A(n);\n";
  Compiled Proven(Fn, {Type::scalar(IntrinsicType::Int, Range::constant(9))});
  EXPECT_EQ(Proven.emit().find("mlfLoadChecked"), std::string::npos);
  Compiled Unproven(Fn, {Type::scalar(IntrinsicType::Int)});
  // n's value is unknown: A(n) keeps its subscript check.
  EXPECT_NE(Unproven.emit().find("mlfStoreGrow"), std::string::npos);
}

TEST(CEmitter, ElementwiseChainEmitsOneFusedLoop) {
  // A four-op elementwise chain over real matrices lowers to a single
  // fused loop: one allocation, one pass, per-entry named temporaries
  // (and no mlf operator call per op).
  Compiled C("function r = f(a, b, c)\nr = a .* b + c - a .* 0.5;\n",
             {Type::matrix(IntrinsicType::Real),
              Type::matrix(IntrinsicType::Real),
              Type::matrix(IntrinsicType::Real)});
  std::string Src = C.emit();
  // Four operands, not five: the second read of `a` reuses its table slot.
  EXPECT_NE(Src.find("mlfEwAlloc(4"), std::string::npos) << Src;
  EXPECT_NE(Src.find("fused elementwise: 9 entries"), std::string::npos);
  // The program table is hoisted to file scope and passed to the
  // allocation shim, which re-simulates it for conformance/deopt checks.
  EXPECT_NE(Src.find("static const int mlf_prog_"), std::string::npos);
  EXPECT_NE(Src.find("mlfEwLoad"), std::string::npos);
  // One loop for the whole chain, and none of the per-op library calls
  // the generic path would emit.
  EXPECT_EQ(Src.find("for (long long k"), Src.rfind("for (long long k"));
  EXPECT_EQ(Src.find("mlfTimes"), std::string::npos);
  EXPECT_EQ(Src.find("mlfPlus"), std::string::npos);
}

bool hasOpcode(const std::vector<Instr> &Code, Opcode Op) {
  return std::any_of(Code.begin(), Code.end(),
                     [Op](const Instr &I) { return I.Op == Op; });
}

TEST(CEmitter, MandelNeverCallsTheHost) {
  // mandel as the JIT sees perfbench's hot call mandel(20, 40): the complex
  // iteration lives in register pairs and abs(z) is hypot on the pair, so
  // the loop neither boxes a value nor calls a builtin.
  std::ifstream In(mlibDirectory() + "/mandel.m");
  std::stringstream SS;
  SS << In.rdbuf();
  Compiled C(SS.str(),
             {Type::scalar(IntrinsicType::Int, Range::constant(20)),
              Type::scalar(IntrinsicType::Int, Range::constant(40))});
  EXPECT_FALSE(hasOpcode(C.Code->Code, Opcode::CallB)) << C.Code->print();
  EXPECT_FALSE(hasOpcode(C.Code->Code, Opcode::BoxC)) << C.Code->print();
  std::string Src = C.emit();
  EXPECT_EQ(Src.find("mlfCallBuiltin(\"abs\""), std::string::npos) << Src;
  EXPECT_EQ(Src.find("mlfComplexScalar"), std::string::npos) << Src;
  EXPECT_NE(Src.find("hypot("), std::string::npos) << Src;
}

/// An mlib program compiled as the engine compiles perfbench's hot call:
/// callees inlined, the signature read off the argument values, then code
/// selection and register allocation.
struct CorpusProgram {
  SourceManager SM;
  Diagnostics Diags;
  std::unique_ptr<Module> Mod;
  std::unique_ptr<Function> Inlined;
  std::unique_ptr<FunctionInfo> Info;
  std::optional<CompileResult> R;

  CorpusProgram(const std::string &Name, const std::vector<double> &Args,
                CodeGenMode Mode) {
    std::ifstream In(mlibDirectory() + "/" + Name + ".m");
    std::stringstream SS;
    SS << In.rdbuf();
    Mod = parseModule(Name, SS.str(), SM, Diags);
    EXPECT_NE(Mod, nullptr) << Diags.render(SM);
    disambiguate(*Mod->mainFunction(), *Mod);
    FunctionResolver Resolve = [this](const std::string &N) {
      return static_cast<const Function *>(Mod->findFunction(N));
    };
    Inlined = inlineFunctionCalls(*Mod->mainFunction(), Mod->context(),
                                  Resolve);
    Info = disambiguate(*Inlined, *Mod);
    CompileRequest Req;
    Req.FI = Info.get();
    std::vector<ValuePtr> ArgValues;
    for (double A : Args)
      ArgValues.push_back(makeValue(Value::intScalar(A)));
    Req.Sig = TypeSignature::ofValues(ArgValues);
    Req.Mode = Mode;
    R = compileFunction(Req);
    EXPECT_TRUE(R.has_value()) << Name;
  }

  const IRFunction &code() const { return *R->Code; }
  std::string emit() const { return emitCSource(*R->Code, R->Sig); }
};

/// Each loop's instructions: a backward branch and everything from its
/// target up to it.
std::vector<std::vector<Instr>> irLoops(const IRFunction &F) {
  std::vector<std::vector<Instr>> Loops;
  for (size_t I = 0; I != F.Code.size(); ++I)
    if (F.Code[I].Op == Opcode::Br && F.Code[I].A >= 0 &&
        static_cast<size_t>(F.Code[I].A) <= I)
      Loops.emplace_back(F.Code.begin() + F.Code[I].A,
                         F.Code.begin() + I + 1);
  return Loops;
}

/// Each loop's C text: from a label to the backward goto that targets it.
std::vector<std::string> cLoops(const std::string &Src) {
  std::vector<std::string> Loops;
  for (size_t At = Src.find("goto L"); At != std::string::npos;
       At = Src.find("goto L", At + 1)) {
    std::string Label = Src.substr(At + 5, Src.find(';', At) - At - 5);
    size_t Def = Src.find(Label + ":;");
    if (Def != std::string::npos && Def < At)
      Loops.push_back(Src.substr(Def, At - Def));
  }
  return Loops;
}

TEST(CEmitter, SmallVectorLoopsKeepNoBoxes) {
  // orbec's and orbrk's 1x2 and 1x4 state vectors (orbrk's gravrk inlined)
  // live in F registers: no step allocates an array or copies a handle.
  for (CodeGenMode Mode : {CodeGenMode::Jit, CodeGenMode::Optimized}) {
    for (auto [Name, Arg] : {std::pair<const char *, double>{"orbec", 2000},
                             {"orbrk", 400}}) {
      SCOPED_TRACE(::testing::Message() << Name << " mode " << int(Mode));
      CorpusProgram P(Name, {Arg}, Mode);
      // The optimizer's unroller may add a back-edge; none may box.
      auto Loops = irLoops(P.code());
      ASSERT_FALSE(Loops.empty()) << P.code().print();
      for (const auto &Loop : Loops) {
        EXPECT_FALSE(hasOpcode(Loop, Opcode::NewMat)) << P.code().print();
        EXPECT_FALSE(hasOpcode(Loop, Opcode::MovP)) << P.code().print();
      }
      std::string Src = P.emit();
      auto CLoops = cLoops(Src);
      ASSERT_EQ(CLoops.size(), Loops.size()) << Src;
      for (const std::string &Loop : CLoops) {
        EXPECT_EQ(Loop.find("mlfZeros"), std::string::npos) << Loop;
        EXPECT_EQ(Loop.find("mxRetain"), std::string::npos) << Loop;
      }
    }
  }
}

TEST(CEmitter, TransposedProductsCopyNothing) {
  // qmr's w' * v, q' * pt and A' * q and cgopt's r' * z and p' * q read
  // their left operand in place: no transposed copy (RtUn) is made, the
  // vector products are unboxed DotTs and A' * q is one MatMulT.
  const std::pair<const char *, std::vector<double>> Hot[] = {
      {"qmr", {120, 60}}, {"cgopt", {120, 400}}};
  for (const auto &[Name, Args] : Hot)
    for (CodeGenMode Mode : {CodeGenMode::Jit, CodeGenMode::Optimized}) {
      SCOPED_TRACE(Name);
      CorpusProgram P(Name, Args, Mode);
      EXPECT_FALSE(hasOpcode(P.code().Code, Opcode::RtUn)) << P.code().print();
      EXPECT_TRUE(hasOpcode(P.code().Code, Opcode::DotT)) << P.code().print();
      EXPECT_EQ(hasOpcode(P.code().Code, Opcode::MatMulT),
                std::string(Name) == "qmr")
          << P.code().print();
      std::string Src = P.emit();
      EXPECT_EQ(Src.find("mlfUnary"), std::string::npos) << Src;
      EXPECT_NE(Src.find("mlfDotT(3, "), std::string::npos) << Src;
    }
}

TEST(CEmitter, FractalLoopNeverCallsTheHost) {
  // fractal's point p is one of three register-built literals per step,
  // and rand is one FRand: the step draws through the rand callback and
  // stores inline into the history arrays, with no call by name and no
  // unbox.
  CorpusProgram P("fractal", {3000}, CodeGenMode::Jit);
  auto Loops = irLoops(P.code());
  ASSERT_EQ(Loops.size(), 2u) << P.code().print();
  EXPECT_FALSE(hasOpcode(Loops[0], Opcode::NewMat)) << P.code().print();
  EXPECT_FALSE(hasOpcode(Loops[0], Opcode::MovP)) << P.code().print();
  EXPECT_TRUE(hasOpcode(Loops[0], Opcode::FRand)) << P.code().print();
  EXPECT_FALSE(hasOpcode(Loops[0], Opcode::CallB)) << P.code().print();
  std::string Src = P.emit();
  auto CLoops = cLoops(Src);
  ASSERT_EQ(CLoops.size(), 2u) << Src;
  std::set<std::string> Calls;
  const std::string &Body = CLoops[0];
  for (size_t At = Body.find("mlf"); At != std::string::npos;
       At = Body.find("mlf", At + 1)) {
    size_t End = Body.find_first_of("( ;", At);
    Calls.insert(Body.substr(At, End - At));
  }
  EXPECT_EQ(Calls, (std::set<std::string>{"mlfRand", "mlfStore", "mlfPoll",
                                           "mlf_ops"}))
      << Body;
}

TEST(CEmitter, MeiFillLoopNeverCallsTheHost) {
  // mei's fill loop, H(i, j) = scale * (rand - 0.5), draws through the rand
  // callback too. Its inner loop is the first back edge of the nest.
  CorpusProgram P("mei", {65, 33}, CodeGenMode::Jit);
  auto Loops = irLoops(P.code());
  ASSERT_FALSE(Loops.empty()) << P.code().print();
  EXPECT_TRUE(hasOpcode(Loops[0], Opcode::FRand)) << P.code().print();
  EXPECT_FALSE(hasOpcode(Loops[0], Opcode::CallB)) << P.code().print();
  std::string Src = P.emit();
  auto CLoops = cLoops(Src);
  ASSERT_FALSE(CLoops.empty()) << Src;
  const std::string &Body = CLoops[0];
  EXPECT_NE(Body.find("mlfRand()"), std::string::npos) << Body;
  EXPECT_EQ(Body.find("mlfCallBuiltin"), std::string::npos) << Body;
  EXPECT_EQ(Body.find("mlfGetScalar"), std::string::npos) << Body;
}

size_t countOpcode(const std::vector<Instr> &Code, Opcode Op) {
  return std::count_if(Code.begin(), Code.end(),
                       [Op](const Instr &I) { return I.Op == Op; });
}

TEST(CEmitter, VectorEscapesAllocateNoMoreThanABox) {
  // A register vector boxes again at every use that needs an array. A slot
  // keeps its box when such a use sits in a loop or when it has more such
  // uses than definitions, so no code allocates more arrays than it did
  // with the slot boxed.
  for (CodeGenMode Mode : {CodeGenMode::Jit, CodeGenMode::Optimized}) {
    SCOPED_TRACE(::testing::Message() << "mode " << int(Mode));
    // Stencil weights defined before the loop, read with a variable
    // subscript and passed to a builtin inside it: no step allocates.
    Compiled Weights("function s = f(n)\nw = [0.25 0.5 0.25];\ns = 0;\n"
                     "for k = 1:n\nj = mod(k, 3) + 1;\n"
                     "s = s + w(j) + sum(w);\nend\n",
                     {Type::scalar(IntrinsicType::Int)}, Mode);
    auto Loops = irLoops(*Weights.Code);
    ASSERT_EQ(Loops.size(), 1u) << Weights.Code->print();
    EXPECT_FALSE(hasOpcode(Loops[0], Opcode::NewMat)) << Weights.Code->print();

    // Defined in the loop and read through end and a variable subscript:
    // one array per step, as the definition itself allocates when boxed.
    Compiled Ends("function s = f(n)\nr = [n, 2 * n, 3 * n];\ns = 0;\n"
                  "for k = 1:3\nr = r + k;\n"
                  "s = s + r(k) + r(end) + r(end - 1);\nend\n",
                  {Type::scalar(IntrinsicType::Int)}, Mode);
    Loops = irLoops(*Ends.Code);
    ASSERT_EQ(Loops.size(), 1u) << Ends.Code->print();
    EXPECT_EQ(countOpcode(Loops[0], Opcode::NewMat), 1u)
        << Ends.Code->print();

    // Escapes after the loop, no more than the definitions: the loop stays
    // register code and the array is built once per escape after it.
    Compiled After("function [t, r] = f(n)\nr = [n, n + 1];\n"
                   "for k = 1:n\nr = [r(2), r(1) + r(2)];\nend\n"
                   "t = sum(r);\n",
                   {Type::scalar(IntrinsicType::Int)}, Mode);
    Loops = irLoops(*After.Code);
    ASSERT_EQ(Loops.size(), 1u) << After.Code->print();
    EXPECT_FALSE(hasOpcode(Loops[0], Opcode::NewMat)) << After.Code->print();
    EXPECT_EQ(countOpcode(After.Code->Code, Opcode::NewMat), 2u)
        << After.Code->print();

    // More escapes than definitions: the one box is built once and shared.
    Compiled Shared("function [t, u] = f(n)\nw = [n, 1];\nt = sum(w);\n"
                    "u = prod(w);\n",
                    {Type::scalar(IntrinsicType::Int)}, Mode);
    EXPECT_EQ(countOpcode(Shared.Code->Code, Opcode::NewMat), 1u)
        << Shared.Code->print();
  }
}

TEST(CEmitter, BoxedComplexTypedAbsKeepsTheBuiltin) {
  // w is an indexed-assignment target, so it lives boxed; typed complex, it
  // may still hold a real, whose abs is fabs, not hypot.
  Compiled C("function a = f(n, x)\nw = 0;\nw(1) = x;\n"
             "if n > 1\nw = 1i;\nend\na = abs(w);\n",
             {Type::scalar(IntrinsicType::Int),
              Type::scalar(IntrinsicType::Real)});
  std::string Src = C.emit();
  EXPECT_NE(Src.find("mlfCallBuiltin(\"abs\""), std::string::npos) << Src;
  EXPECT_EQ(Src.find("hypot("), std::string::npos) << Src;
}

TEST(CEmitter, EveryCorpusBenchmarkEmits) {
  // The emitter must cover every opcode the corpus generates; emitting all
  // sixteen benchmarks is a broad opcode-coverage sweep.
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
    std::string Src = C.emit();
    EXPECT_GT(Src.size(), 200u) << Spec.Name;
    EXPECT_NE(Src.find(Spec.Name + "_compiled"), std::string::npos)
        << Spec.Name;
    // Balanced braces: crude syntactic sanity.
    EXPECT_EQ(std::count(Src.begin(), Src.end(), '{'),
              std::count(Src.begin(), Src.end(), '}'))
        << Spec.Name;
  }
}

} // namespace
