//===- tests/CEmitterTest.cpp - The Figure 3 C source generator ----------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Disambiguate.h"
#include "ast/Parser.h"
#include "backend/CEmitter.h"
#include "backend/Compiler.h"
#include "engine/Corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
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

bool hasOpcode(const IRFunction &F, Opcode Op) {
  return std::any_of(F.Code.begin(), F.Code.end(),
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
  EXPECT_FALSE(hasOpcode(*C.Code, Opcode::CallB)) << C.Code->print();
  EXPECT_FALSE(hasOpcode(*C.Code, Opcode::BoxC)) << C.Code->print();
  std::string Src = C.emit();
  EXPECT_EQ(Src.find("mlfCallBuiltin(\"abs\""), std::string::npos) << Src;
  EXPECT_EQ(Src.find("mlfComplexScalar"), std::string::npos) << Src;
  EXPECT_NE(Src.find("hypot("), std::string::npos) << Src;
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
