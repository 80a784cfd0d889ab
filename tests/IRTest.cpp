//===- tests/IRTest.cpp - IR, optimizer and register allocator ----------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Disambiguate.h"
#include "ast/Parser.h"
#include "backend/Compiler.h"
#include "backend/Optimize.h"
#include "backend/Platform.h"
#include "backend/RegAlloc.h"
#include "backend/VM.h"
#include "ir/Builder.h"
#include "ir/Operands.h"
#include "engine/Corpus.h"
#include "ir/Serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

using namespace majic;

namespace {

struct NoCalls : CallResolver {
  std::vector<ValuePtr> callFunction(const std::string &Name,
                                     std::vector<ValuePtr>, size_t,
                                     SourceLoc) override {
    throw MatlabError("unexpected call to '" + Name + "'");
  }
  bool knowsFunction(const std::string &) override { return false; }
  unsigned &callDepth() override { return Depth; }
  unsigned maxCallDepth() const override { return 4000; }
  unsigned Depth = 0;
};

/// Runs an IR function end to end on the VM.
std::vector<ValuePtr> execute(IRFunction &F, std::vector<ValuePtr> Args,
                              size_t NumOuts,
                              const RegAllocOptions &RA = {}) {
  allocateRegisters(F, PlatformModel::sparc(), RA);
  Context Ctx;
  NoCalls Resolver;
  VM Machine(Ctx, Resolver);
  return Machine.run(F, std::move(Args), NumOuts);
}

/// Builds: out0 = sum over k in [0, n) of (k * 2 + 1), with n from arg0.
/// Exercises constants, a counted loop, compares and boxing.
std::unique_ptr<IRFunction> buildLoopFunction() {
  auto F = std::make_unique<IRFunction>();
  F->Name = "loopsum";
  F->NumOuts = 1;
  F->NumParams = 1;
  IRBuilder B(*F);

  int32_t ArgP = B.newP();
  B.emitImmI(Opcode::LoadParam, 0, ArgP);
  int32_t N = B.newI();
  B.emit(Opcode::UnboxI, N, ArgP);
  int32_t Sum = B.iconst(0);
  int32_t K = B.iconst(0);
  int32_t Two = B.iconst(2);
  int32_t One = B.iconst(1);

  IRBuilder::Label Header = B.newLabel();
  IRBuilder::Label Exit = B.newLabel();
  B.bind(Header);
  int32_t Cond = B.newI();
  B.emitImmI(Opcode::ICmp, static_cast<int64_t>(CondCode::LT), Cond, K, N);
  B.brz(Cond, Exit);
  int32_t T1 = B.newI(), T2 = B.newI();
  B.emit(Opcode::IMul, T1, K, Two);
  B.emit(Opcode::IAdd, T2, T1, One);
  B.emit(Opcode::IAdd, Sum, Sum, T2);
  B.emit(Opcode::IAdd, K, K, One);
  B.br(Header);
  B.bind(Exit);

  int32_t Out = B.newP();
  B.emit(Opcode::BoxI, Out, Sum);
  B.emitImmI(Opcode::StoreOut, 0, Out);
  B.emit(Opcode::Ret);
  B.finish();
  return F;
}

//===----------------------------------------------------------------------===//
// Builder and printer
//===----------------------------------------------------------------------===//

TEST(IRBuilder, ForwardLabelPatching) {
  IRFunction F;
  IRBuilder B(F);
  IRBuilder::Label L = B.newLabel();
  B.br(L);          // forward branch, unpatched at emission
  B.emit(Opcode::Nop);
  B.bind(L);
  B.emit(Opcode::Ret);
  B.finish();
  EXPECT_EQ(F.Code[0].A, 2); // patched to the Ret
}

TEST(IRBuilder, BackwardBranchImmediate) {
  IRFunction F;
  IRBuilder B(F);
  IRBuilder::Label L = B.newLabel();
  B.bind(L);
  B.emit(Opcode::Nop);
  B.br(L);
  B.finish();
  EXPECT_EQ(F.Code[1].A, 0);
}

TEST(IRBuilder, NameAndStringInterning) {
  IRFunction F;
  EXPECT_EQ(F.internName("sqrt"), 0);
  EXPECT_EQ(F.internName("disp"), 1);
  EXPECT_EQ(F.internName("sqrt"), 0); // deduplicated
  EXPECT_EQ(F.internString("a"), 0);
  EXPECT_EQ(F.internString("a"), 1); // strings are not deduplicated
}

TEST(IRPrinter, RendersEveryEmittedOpcode) {
  auto F = buildLoopFunction();
  std::string Text = F->print();
  EXPECT_NE(Text.find("loadparam"), std::string::npos);
  EXPECT_NE(Text.find("unboxi"), std::string::npos);
  EXPECT_NE(Text.find("icmp"), std::string::npos);
  EXPECT_NE(Text.find("brz"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

TEST(IROperands, MetadataCoversAllOpcodes) {
  // Every opcode must map to operand metadata without tripping asserts, and
  // pool-carrying ops must report consistent ranges.
  for (int OpInt = 0; OpInt <= static_cast<int>(kLastOpcode); ++OpInt) {
    auto Op = static_cast<Opcode>(OpInt);
    (void)instrOperands(Instr::make(Op));
    (void)opcodeName(Op);
    (void)isPureInstr(Op);
    (void)isHoistableInstr(Op);
  }
  Instr Call = Instr::make(Opcode::CallB, 4, 2, 10, 3);
  PoolRanges PR = poolRanges(Call);
  EXPECT_EQ(PR.DefOff, 4);
  EXPECT_EQ(PR.DefCount, 2);
  EXPECT_EQ(PR.UseOff, 10);
  EXPECT_EQ(PR.UseCount, 3);
  Instr Idx = Instr::make(Opcode::LoadIdxG, 0, 1, 7, 2);
  PR = poolRanges(Idx);
  EXPECT_EQ(PR.UseOff, 7);
  EXPECT_EQ(PR.UseCount, 2);
  EXPECT_EQ(PR.DefCount, 0);
}

//===----------------------------------------------------------------------===//
// VM execution of hand-built IR
//===----------------------------------------------------------------------===//

TEST(VMExec, CountedLoop) {
  auto F = buildLoopFunction();
  auto R = execute(*F, {makeValue(Value::intScalar(10))}, 1);
  // sum_{k=0}^{9} (2k + 1) = 100.
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 100);
}

TEST(VMExec, SpillEverythingSameResult) {
  auto F = buildLoopFunction();
  RegAllocOptions RA;
  RA.SpillEverything = true;
  auto R = execute(*F, {makeValue(Value::intScalar(10))}, 1, RA);
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 100);
  EXPECT_TRUE(F->Allocated);
  EXPECT_GT(F->NumISpill, 0u);
}

TEST(VMExec, MissingOutputThrows) {
  IRFunction F;
  IRBuilder B(F);
  F.NumOuts = 1;
  B.emit(Opcode::Ret);
  B.finish();
  EXPECT_THROW(execute(F, {}, 1), MatlabError);
}

TEST(VMExec, InstructionCounterAdvances) {
  auto F = buildLoopFunction();
  allocateRegisters(*F, PlatformModel::sparc(), {});
  Context Ctx;
  NoCalls Resolver;
  VM Machine(Ctx, Resolver);
  Machine.run(*F, {makeValue(Value::intScalar(100))}, 1);
  uint64_t After100 = Machine.instructionsExecuted();
  Machine.run(*F, {makeValue(Value::intScalar(200))}, 1);
  uint64_t After200 = Machine.instructionsExecuted() - After100;
  EXPECT_GT(After200, After100); // twice the loop work
}

//===----------------------------------------------------------------------===//
// Register allocation
//===----------------------------------------------------------------------===//

TEST(RegAlloc, FitsSmallFunctionsWithoutSpills) {
  auto F = buildLoopFunction();
  RegAllocStats Stats = allocateRegisters(*F, PlatformModel::sparc(), {});
  EXPECT_EQ(Stats.NumISpilled, 0u);
  EXPECT_EQ(Stats.NumSpillInstrs, 0u);
  EXPECT_EQ(F->NumI, PlatformModel::sparc().NumIRegs);
}

TEST(RegAlloc, SpillsWhenPressureExceedsFile) {
  // 40 simultaneously live I registers against a 16-register file.
  IRFunction F;
  IRBuilder B(F);
  F.NumOuts = 1;
  std::vector<int32_t> Regs;
  for (int K = 0; K != 40; ++K)
    Regs.push_back(B.iconst(K));
  int32_t Sum = B.iconst(0);
  for (int K = 0; K != 40; ++K)
    B.emit(Opcode::IAdd, Sum, Sum, Regs[K]);
  int32_t Out = B.newP();
  B.emit(Opcode::BoxI, Out, Sum);
  B.emitImmI(Opcode::StoreOut, 0, Out);
  B.emit(Opcode::Ret);
  B.finish();

  RegAllocStats Stats = allocateRegisters(F, PlatformModel::sparc(), {});
  EXPECT_GT(Stats.NumISpilled, 0u);

  Context Ctx;
  NoCalls Resolver;
  VM Machine(Ctx, Resolver);
  auto R = Machine.run(F, {}, 1);
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 40 * 39 / 2);
}

TEST(RegAlloc, LoopCarriedValueSurvivesSpilling) {
  // The loop counter and accumulator are live around the back edge, so
  // their intervals cover the whole loop; under spill-everything their
  // slots must still carry them from one iteration to the next.
  auto F = buildLoopFunction();
  RegAllocOptions RA;
  RA.SpillEverything = true;
  auto R = execute(*F, {makeValue(Value::intScalar(33))}, 1, RA);
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 33.0 * 33.0); // sum of first n odds
}

TEST(RegAlloc, SmallerFileSpillsMore) {
  auto F1 = buildLoopFunction();
  auto F2 = buildLoopFunction();
  RegAllocStats Sparc = allocateRegisters(*F1, PlatformModel::sparc(), {});
  PlatformModel Tiny = PlatformModel::sparc();
  Tiny.NumIRegs = 4; // 3 scratch + 1 usable
  RegAllocStats Small = allocateRegisters(*F2, Tiny, {});
  EXPECT_GT(Small.NumISpilled, Sparc.NumISpilled);
  // And the function still computes correctly.
  Context Ctx;
  NoCalls Resolver;
  VM Machine(Ctx, Resolver);
  auto R = Machine.run(*F2, {makeValue(Value::intScalar(10))}, 1);
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 100);
}

/// Emits the prologue of a one-parameter function: the parameter,
/// unboxed to an I register, which it returns.
int32_t intParam(IRBuilder &B) {
  int32_t ArgP = B.newP();
  B.emitImmI(Opcode::LoadParam, 0, ArgP);
  int32_t N = B.newI();
  B.emit(Opcode::UnboxI, N, ArgP);
  return N;
}

/// Emits the epilogue that returns F register \p R as output 0.
void returnF(IRBuilder &B, int32_t R) {
  int32_t Out = B.newP();
  B.emit(Opcode::BoxF, Out, R);
  B.emitImmI(Opcode::StoreOut, 0, Out);
  B.emit(Opcode::Ret);
  B.finish();
}

/// The interval \p F's allocator would give F register \p R.
LiveInterval fInterval(const IRFunction &F, int32_t R) {
  for (const LiveInterval &It : liveIntervals(F).F)
    if (It.VReg == R)
      return It;
  ADD_FAILURE() << "no interval for f" << R;
  return {R, -1, -1};
}

/// Builds a loop over k in [0, n) whose body reads \p Carried before it
/// writes it, with \p Wide F values live at once in between:
///   acc += prev; t_j = k + j (j < Wide); acc += sum t_j; prev = k.
/// Returns acc. Positions of the header and the back edge land in
/// \p Header and \p Latch; prev's register in \p Prev.
std::unique_ptr<IRFunction> buildCarriedLoop(int Wide, int32_t &Prev,
                                             size_t &Header, size_t &Latch) {
  auto F = std::make_unique<IRFunction>();
  F->NumOuts = 1;
  F->NumParams = 1;
  IRBuilder B(*F);
  int32_t N = intParam(B);
  int32_t Acc = B.fconst(0);
  Prev = B.fconst(0);
  int32_t K = B.iconst(0);
  int32_t One = B.iconst(1);
  IRBuilder::Label Top = B.newLabel(), Exit = B.newLabel();
  Header = F->Code.size();
  B.bind(Top);
  int32_t Cond = B.newI();
  B.emitImmI(Opcode::ICmp, static_cast<int64_t>(CondCode::LT), Cond, K, N);
  B.brz(Cond, Exit);
  B.emit(Opcode::FAdd, Acc, Acc, Prev);
  int32_t KF = B.newF();
  B.emit(Opcode::IToF, KF, K);
  std::vector<int32_t> T;
  for (int J = 0; J != Wide; ++J) {
    T.push_back(B.newF());
    B.emit(Opcode::FAdd, T.back(), KF, B.fconst(J));
  }
  for (int32_t R : T)
    B.emit(Opcode::FAdd, Acc, Acc, R);
  B.emit(Opcode::MovF, Prev, KF);
  B.emit(Opcode::IAdd, K, K, One);
  Latch = F->Code.size();
  B.br(Top);
  B.bind(Exit);
  returnF(B, Acc);
  return F;
}

/// What buildCarriedLoop's function returns for \p N.
double carriedLoopResult(int Wide, int N) {
  double Acc = 0, Prev = 0;
  for (int K = 0; K != N; ++K) {
    Acc += Prev;
    for (int J = 0; J != Wide; ++J)
      Acc += K + J;
    Prev = K;
  }
  return Acc;
}

TEST(RegAlloc, ShortLivedLoopTemporariesDoNotSpill) {
  // Each iteration defines 40 F constants and uses each one right away:
  // more than the 13 allocatable registers, but never more than a few
  // live at once.
  auto F = std::make_unique<IRFunction>();
  F->NumOuts = 1;
  F->NumParams = 1;
  IRBuilder B(*F);
  int32_t N = intParam(B);
  int32_t Acc = B.fconst(0);
  int32_t K = B.iconst(0);
  int32_t One = B.iconst(1);
  IRBuilder::Label Top = B.newLabel(), Exit = B.newLabel();
  B.bind(Top);
  int32_t Cond = B.newI();
  B.emitImmI(Opcode::ICmp, static_cast<int64_t>(CondCode::LT), Cond, K, N);
  B.brz(Cond, Exit);
  for (int J = 1; J <= 40; ++J)
    B.emit(Opcode::FAdd, Acc, Acc, B.fconst(J));
  B.emit(Opcode::IAdd, K, K, One);
  B.br(Top);
  B.bind(Exit);
  returnF(B, Acc);
  ASSERT_GT(F->NumF, 13u);

  RegAllocStats Stats = allocateRegisters(*F, PlatformModel::sparc(), {});
  EXPECT_EQ(Stats.NumFSpilled, 0u);
  EXPECT_EQ(Stats.NumSpillInstrs, 0u);
  Context Ctx;
  NoCalls Resolver;
  VM Machine(Ctx, Resolver);
  auto R = Machine.run(*F, {makeValue(Value::intScalar(5))}, 1);
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 5 * (40 * 41 / 2));
}

TEST(RegAlloc, ValueLiveAroundBackEdgeSurvivesPressure) {
  // prev is read at the top of the body and written at its bottom, so it
  // is live around the back edge and its interval must cover the whole
  // loop; 20 values live at once in the body force spills around it.
  for (bool SpillAll : {false, true}) {
    int32_t Prev;
    size_t Header, Latch;
    auto F = buildCarriedLoop(20, Prev, Header, Latch);
    LiveInterval It = fInterval(*F, Prev);
    EXPECT_LE(It.Start, static_cast<int32_t>(Header));
    EXPECT_GE(It.End, static_cast<int32_t>(Latch));
    RegAllocOptions RA;
    RA.SpillEverything = SpillAll;
    RegAllocStats Stats = allocateRegisters(*F, PlatformModel::sparc(), RA);
    EXPECT_GT(Stats.NumFSpilled, 0u);
    Context Ctx;
    NoCalls Resolver;
    VM Machine(Ctx, Resolver);
    auto R = Machine.run(*F, {makeValue(Value::intScalar(7))}, 1);
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), carriedLoopResult(20, 7))
        << "SpillEverything " << SpillAll;
  }
}

TEST(RegAlloc, InnerLoopCarriedValueStaysInsideOuterLoop) {
  // for i in [0, n): x = 0; for j in [0, n): x = x + 1; end; s = s + x
  // x is live around the inner back edge only: from its def in the outer
  // body to its last use after the inner loop, never around the outer
  // back edge.
  auto F = std::make_unique<IRFunction>();
  F->NumOuts = 1;
  F->NumParams = 1;
  IRBuilder B(*F);
  int32_t N = intParam(B);
  int32_t S = B.fconst(0);
  int32_t OneF = B.fconst(1);
  int32_t I = B.iconst(0), J = B.newI();
  int32_t One = B.iconst(1);
  IRBuilder::Label Outer = B.newLabel(), OuterExit = B.newLabel();
  IRBuilder::Label Inner = B.newLabel(), InnerExit = B.newLabel();
  const auto OuterHeader = static_cast<int32_t>(F->Code.size());
  B.bind(Outer);
  int32_t CondI = B.newI();
  B.emitImmI(Opcode::ICmp, static_cast<int64_t>(CondCode::LT), CondI, I, N);
  B.brz(CondI, OuterExit);
  int32_t X = B.fconst(0);
  B.emitImmI(Opcode::IConst, 0, J);
  const auto InnerHeader = static_cast<int32_t>(F->Code.size());
  B.bind(Inner);
  int32_t CondJ = B.newI();
  B.emitImmI(Opcode::ICmp, static_cast<int64_t>(CondCode::LT), CondJ, J, N);
  B.brz(CondJ, InnerExit);
  B.emit(Opcode::FAdd, X, X, OneF);
  B.emit(Opcode::IAdd, J, J, One);
  const auto InnerLatch = static_cast<int32_t>(F->Code.size());
  B.br(Inner);
  B.bind(InnerExit);
  B.emit(Opcode::FAdd, S, S, X);
  B.emit(Opcode::IAdd, I, I, One);
  const auto OuterLatch = static_cast<int32_t>(F->Code.size());
  B.br(Outer);
  B.bind(OuterExit);
  returnF(B, S);

  LiveInterval XI = fInterval(*F, X);
  EXPECT_GT(XI.Start, OuterHeader);
  EXPECT_LE(XI.Start, InnerHeader);
  EXPECT_GE(XI.End, InnerLatch);
  EXPECT_LT(XI.End, OuterLatch);
  // s and the constant 1 are live around the outer back edge.
  EXPECT_LE(fInterval(*F, S).Start, OuterHeader);
  EXPECT_GE(fInterval(*F, OneF).End, OuterLatch);

  auto R = execute(*F, {makeValue(Value::intScalar(6))}, 1);
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 36);
}

TEST(RegAlloc, BlockSuccessors) {
  //   0: iconst c       block 0: brz's target (block 4), then block 1
  //   1: brz c, 5
  //   2: brnz c, 6      block 1: brnz's target (block 5), then block 2
  //   3: ret            block 2: none
  //   4: nop            block 3: falls into block 4
  //   5: br 3           block 4: br's target (block 2) only
  //   6: ret            block 5: none
  IRFunction F;
  F.Code = {Instr::make(Opcode::IConst, 0), Instr::make(Opcode::Brz, 5, 0),
            Instr::make(Opcode::Brnz, 6, 0), Instr::make(Opcode::Ret),
            Instr::make(Opcode::Nop),        Instr::make(Opcode::Br, 3),
            Instr::make(Opcode::Ret)};
  BlockGraph G = buildBlockGraph(F);
  EXPECT_EQ(G.Begin, (std::vector<int32_t>{0, 2, 3, 4, 5, 6, 7}));
  using Succ = std::array<int32_t, 2>;
  ASSERT_EQ(G.numBlocks(), 6u);
  EXPECT_EQ(G.Succs[0], (Succ{4, 1}));
  EXPECT_EQ(G.Succs[1], (Succ{5, 2}));
  EXPECT_EQ(G.Succs[2], (Succ{-1, -1}));
  EXPECT_EQ(G.Succs[3], (Succ{4, -1}));
  EXPECT_EQ(G.Succs[4], (Succ{2, -1}));
  EXPECT_EQ(G.Succs[5], (Succ{-1, -1}));
}

TEST(RegAlloc, CorpusLoopProgramBarelySpills) {
  // crnich at bench_paper's arguments: 486 of its 975 JIT instructions
  // were spill code while every interval touching a loop spanned it.
  const BenchmarkSpec *Spec = findBenchmark("crnich");
  ASSERT_NE(Spec, nullptr);
  std::ifstream In(mlibDirectory() + "/crnich.m");
  std::stringstream Src;
  Src << In.rdbuf();
  SourceManager SM;
  Diagnostics Diags;
  auto Mod = parseModule("crnich", Src.str(), SM, Diags);
  ASSERT_NE(Mod, nullptr) << Diags.render(SM);
  auto Info = disambiguate(*Mod->mainFunction(), *Mod);
  CompileRequest Req;
  Req.FI = Info.get();
  Req.Sig = TypeSignature::ofValues(corpusArgs(*Spec));
  auto R = compileFunction(Req);
  ASSERT_TRUE(R.has_value());
  EXPECT_LE(R->RegAlloc.NumSpillInstrs, 20u);
  EXPECT_GT(R->Code->Code.size(), 300u);
}

TEST(RegAlloc, FieldsAAndDNeverShareAScratch) {
  // A spilled operand goes through the scratch of its field position, and
  // fields A and D share scratch 0 of their class. Only CallSelf (which
  // reads its arguments before it writes A) may have F or I operands of
  // one class in both.
  auto ClassOf = [](OperandKind K) {
    return K == OperandKind::DefF || K == OperandKind::UseF   ? 'F'
           : K == OperandKind::DefI || K == OperandKind::UseI ? 'I'
                                                              : '-';
  };
  for (unsigned Raw = 0; Raw <= static_cast<unsigned>(kLastOpcode); ++Raw) {
    auto Op = static_cast<Opcode>(Raw);
    if (Op == Opcode::CallSelf)
      continue;
    InstrOperands Ops = instrOperands(Instr::make(Op));
    char A = ClassOf(Ops.Fields[0]), D = ClassOf(Ops.Fields[3]);
    EXPECT_TRUE(A == '-' || A != D) << opcodeName(Op);
  }
}

//===----------------------------------------------------------------------===//
// Optimizer passes on hand-built IR
//===----------------------------------------------------------------------===//

TEST(Optimizer, ConstantFoldingCollapsesArithmetic) {
  IRFunction F;
  IRBuilder B(F);
  F.NumOuts = 1;
  int32_t A = B.fconst(6);
  int32_t C = B.fconst(7);
  int32_t M = B.newF();
  B.emit(Opcode::FMul, M, A, C);
  int32_t Out = B.newP();
  B.emit(Opcode::BoxF, Out, M);
  B.emitImmI(Opcode::StoreOut, 0, Out);
  B.emit(Opcode::Ret);
  B.finish();

  OptimizeStats Stats = optimize(F);
  EXPECT_GE(Stats.NumFolded, 1u);
  bool FoundFoldedConst = false;
  for (const Instr &In : F.Code)
    FoundFoldedConst |= In.Op == Opcode::FConst && In.Imm.F == 42.0;
  EXPECT_TRUE(FoundFoldedConst);
  EXPECT_DOUBLE_EQ(execute(F, {}, 1)[0]->scalarValue(), 42);
}

TEST(Optimizer, CSEEliminatesRecomputation) {
  IRFunction F;
  IRBuilder B(F);
  F.NumOuts = 1;
  int32_t PIn = B.newP();
  B.emitImmI(Opcode::LoadParam, 0, PIn);
  int32_t X = B.newF();
  B.emit(Opcode::UnboxF, X, PIn);
  // (x*x) + (x*x) computed twice.
  int32_t S1 = B.newF(), S2 = B.newF(), Sum = B.newF();
  B.emit(Opcode::FMul, S1, X, X);
  B.emit(Opcode::FMul, S2, X, X);
  B.emit(Opcode::FAdd, Sum, S1, S2);
  int32_t Out = B.newP();
  B.emit(Opcode::BoxF, Out, Sum);
  B.emitImmI(Opcode::StoreOut, 0, Out);
  B.emit(Opcode::Ret);
  B.finish();

  OptimizeStats Stats = optimize(F);
  EXPECT_GE(Stats.NumCSE, 1u);
  auto R = execute(F, {makeScalar(3)}, 1);
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 18);
}

TEST(Optimizer, DCEDropsDeadPureCode) {
  IRFunction F;
  IRBuilder B(F);
  F.NumOuts = 1;
  B.fconst(1.0); // dead
  B.fconst(2.0); // dead
  int32_t Live = B.iconst(5);
  int32_t Out = B.newP();
  B.emit(Opcode::BoxI, Out, Live);
  B.emitImmI(Opcode::StoreOut, 0, Out);
  B.emit(Opcode::Ret);
  B.finish();
  size_t Before = F.Code.size();
  OptimizeStats Stats = optimize(F);
  EXPECT_GE(Stats.NumDead, 2u);
  EXPECT_LT(F.Code.size(), Before);
  EXPECT_DOUBLE_EQ(execute(F, {}, 1)[0]->scalarValue(), 5);
}

TEST(Optimizer, DCEKeepsEffects) {
  IRFunction F;
  IRBuilder B(F);
  F.NumOuts = 0;
  int32_t S = B.newP();
  B.emitImmI(Opcode::SConst, F.internString("hello"), S);
  Instr Disp = Instr::make(Opcode::Display, S);
  Disp.Imm.I = F.internName("x");
  B.emit(Disp); // impure: must survive even though nothing reads a result
  B.emit(Opcode::Ret);
  B.finish();
  optimize(F);
  bool HasDisplay = false;
  for (const Instr &In : F.Code)
    HasDisplay |= In.Op == Opcode::Display;
  EXPECT_TRUE(HasDisplay);
}

/// Builds a counted loop with a loop-invariant multiply inside, with proper
/// LoopMeta, as the code generator would.
std::unique_ptr<IRFunction> buildInvariantLoop() {
  auto F = std::make_unique<IRFunction>();
  IRBuilder B(*F);
  F->NumOuts = 1;
  F->NumParams = 1;
  int32_t PIn = B.newP();
  B.emitImmI(Opcode::LoadParam, 0, PIn);
  int32_t N = B.newI();
  B.emit(Opcode::UnboxI, N, PIn);
  int32_t Sum = B.fconst(0);
  int32_t K = B.iconst(0);
  int32_t One = B.iconst(1);

  IRBuilder::Label Header = B.newLabel();
  IRBuilder::Label Exit = B.newLabel();
  B.bind(Header);
  size_t HeaderIndex = F->Code.size();
  int32_t Cond = B.newI();
  B.emitImmI(Opcode::ICmp, static_cast<int64_t>(CondCode::LT), Cond, K, N);
  B.brz(Cond, Exit);
  size_t BodyBegin = F->Code.size();
  // Invariant: inv = 3 * 7 (constants inside the loop).
  int32_t C3 = B.fconst(3), C7 = B.fconst(7);
  int32_t Inv = B.newF();
  B.emit(Opcode::FMul, Inv, C3, C7);
  B.emit(Opcode::FAdd, Sum, Sum, Inv);
  size_t LatchIndex = F->Code.size();
  B.emit(Opcode::IAdd, K, K, One);
  B.br(Header);
  B.bind(Exit);
  size_t ExitIndex = F->Code.size();
  int32_t Out = B.newP();
  B.emit(Opcode::BoxF, Out, Sum);
  B.emitImmI(Opcode::StoreOut, 0, Out);
  B.emit(Opcode::Ret);
  B.finish();

  LoopMeta Meta;
  Meta.HeaderIndex = static_cast<uint32_t>(HeaderIndex);
  Meta.BodyBegin = static_cast<uint32_t>(BodyBegin);
  Meta.LatchIndex = static_cast<uint32_t>(LatchIndex);
  Meta.ExitIndex = static_cast<uint32_t>(ExitIndex);
  Meta.CounterReg = K;
  Meta.TripReg = N;
  F->Loops.push_back(Meta);
  return F;
}

TEST(Optimizer, LICMHoistsInvariants) {
  auto F = buildInvariantLoop();
  OptimizeOptions Opts;
  Opts.UnrollFactor = 1;
  OptimizeStats Stats = optimize(*F, Opts);
  EXPECT_GE(Stats.NumHoisted + Stats.NumFolded, 1u);
  auto R = execute(*F, {makeValue(Value::intScalar(5))}, 1);
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 105); // 5 * 21
}

TEST(Optimizer, UnrollPreservesSemanticsAcrossTripCounts) {
  // Odd, even and zero trip counts through the unrolled main + remainder
  // structure.
  for (int N : {0, 1, 2, 3, 7, 8, 100}) {
    auto F = buildInvariantLoop();
    OptimizeOptions Opts;
    Opts.UnrollFactor = 2;
    OptimizeStats Stats = optimize(*F, Opts);
    if (N == 0)
      EXPECT_GE(Stats.NumLoopsUnrolled, 1u);
    auto R = execute(*F, {makeValue(Value::intScalar(N))}, 1);
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 21.0 * N) << "trip count " << N;
  }
}

TEST(Optimizer, UnrollFactorFour) {
  for (int N : {0, 1, 3, 5, 9}) {
    auto F = buildInvariantLoop();
    OptimizeOptions Opts;
    Opts.UnrollFactor = 4;
    optimize(*F, Opts);
    auto R = execute(*F, {makeValue(Value::intScalar(N))}, 1);
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 21.0 * N) << "trip count " << N;
  }
}

TEST(Optimizer, PipelineIsIdempotentOnSecondRound) {
  auto F1 = buildInvariantLoop();
  optimize(*F1);
  auto R1 = execute(*F1, {makeValue(Value::intScalar(6))}, 1);

  auto F2 = buildInvariantLoop();
  optimize(*F2);
  optimize(*F2);
  auto R2 = execute(*F2, {makeValue(Value::intScalar(6))}, 1);
  EXPECT_DOUBLE_EQ(R1[0]->scalarValue(), R2[0]->scalarValue());
}

/// A constant operand: an F field reads F, an I field reads I.
struct Operand {
  double F = 0;
  int64_t I = 0;
};

/// Folds Op over the constant operands X (field B) and Y (field C, when Op
/// reads it), then runs the unfolded instruction on the VM, and succeeds
/// when both results have the same bits.
::testing::AssertionResult foldMatchesVM(Opcode Op, Operand X, Operand Y) {
  const InstrOperands Ops = instrOperands(Instr::make(Op));
  const bool DefF = regClass(Ops.Fields[0]) == RegClass::F;
  // out0 = Op(X, Y). With a Check, an I result is boxed as its difference
  // from it, which a double holds exactly when it is 0.
  auto Build = [&](IRFunction &F, int32_t &Result,
                   std::optional<int64_t> Check) {
    IRBuilder B(F);
    F.NumOuts = 1;
    int32_t Fields[4] = {DefF ? B.newF() : B.newI(), -1, -1, -1};
    const Operand *Args[] = {&X, &Y};
    for (unsigned K = 1; K != 3; ++K)
      if (isUse(Ops.Fields[K]))
        Fields[K] = regClass(Ops.Fields[K]) == RegClass::F
                        ? B.fconst(Args[K - 1]->F)
                        : B.iconst(Args[K - 1]->I);
    B.emit(Op, Fields[0], Fields[1], Fields[2]);
    Result = Fields[0];
    int32_t Out = B.newP();
    if (!Check) {
      B.emit(DefF ? Opcode::BoxF : Opcode::BoxI, Out, Result);
    } else {
      int32_t Diff = B.newI(), Real = B.newF();
      B.emit(Opcode::ISub, Diff, Result, B.iconst(*Check));
      B.emit(Opcode::IToF, Real, Diff);
      B.emit(Opcode::BoxF, Out, Real);
    }
    B.emitImmI(Opcode::StoreOut, 0, Out);
    B.emit(Opcode::Ret);
    B.finish();
  };

  IRFunction Folded;
  int32_t Result;
  Build(Folded, Result, std::nullopt);
  optimize(Folded);
  const Instr *Const = nullptr;
  for (const Instr &In : Folded.Code) {
    if (In.Op == Op)
      return ::testing::AssertionFailure() << opcodeName(Op) << " not folded";
    if (In.Op == (DefF ? Opcode::FConst : Opcode::IConst) && In.A == Result)
      Const = &In;
  }
  if (!Const)
    return ::testing::AssertionFailure() << opcodeName(Op) << ": no constant";

  IRFunction Unfolded;
  Build(Unfolded, Result,
        DefF ? std::nullopt : std::optional<int64_t>(Const->Imm.I));
  double Ran = execute(Unfolded, {}, 1)[0]->scalarValue();
  uint64_t Want = 0, Got; // an I result's Want: the +0.0 of no difference
  if (DefF)
    std::memcpy(&Want, &Const->Imm.F, sizeof Want);
  std::memcpy(&Got, &Ran, sizeof Got);
  if (Want == Got)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << opcodeName(Op) << "(" << X.F << "/" << X.I << ", " << Y.F << "/"
         << Y.I << "): folded " << (DefF ? Const->Imm.F : double(Const->Imm.I))
         << ", VM " << (DefF ? "" : "off by ") << Ran;
}

TEST(Optimizer, FoldingMatchesTheVMBitForBit) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Reals[] = {NaN, 0.0, -0.0, Inf, -Inf, 0x1p53 + 2, 0x1p53 - 1,
                          -8, 1.0 / 3, 2.5, 0x1p62, -0x1p62};
  const int64_t Ints[] = {0,
                          1,
                          -1,
                          3,
                          (int64_t(1) << 53) + 1,
                          (int64_t(1) << 53) - 1,
                          -(int64_t(1) << 53) - 1,
                          int64_t(1) << 62};
  for (Opcode Op : {Opcode::FAdd, Opcode::FSub, Opcode::FMul, Opcode::FDiv,
                    Opcode::FPow})
    for (double X : Reals)
      for (double Y : Reals)
        EXPECT_TRUE(foldMatchesVM(Op, {X, 0}, {Y, 0}));
  // A negative base with a fractional exponent: NaN on both tiers.
  EXPECT_TRUE(foldMatchesVM(Opcode::FPow, {-8, 0}, {1.0 / 3, 0}));
  for (double X : Reals) {
    EXPECT_TRUE(foldMatchesVM(Opcode::FNeg, {X, 0}, {}));
    if (std::isfinite(X)) // in int64 range: the rest is undefined in C++
      EXPECT_TRUE(foldMatchesVM(Opcode::FToI, {X, 0}, {}));
  }
  for (int64_t X : Ints) {
    EXPECT_TRUE(foldMatchesVM(Opcode::IToF, {0, X}, {}));
    EXPECT_TRUE(foldMatchesVM(Opcode::INeg, {0, X}, {}));
    for (int64_t Y : Ints) {
      int64_t Unused;
      if (!__builtin_add_overflow(X, Y, &Unused))
        EXPECT_TRUE(foldMatchesVM(Opcode::IAdd, {0, X}, {0, Y}));
      if (!__builtin_sub_overflow(X, Y, &Unused))
        EXPECT_TRUE(foldMatchesVM(Opcode::ISub, {0, X}, {0, Y}));
      if (!__builtin_mul_overflow(X, Y, &Unused))
        EXPECT_TRUE(foldMatchesVM(Opcode::IMul, {0, X}, {0, Y}));
    }
  }
}

//===----------------------------------------------------------------------===//
// Code selection: immediates and fused compare-branches
//===----------------------------------------------------------------------===//

/// Emits a parameter unboxed to an F register.
int32_t realParam(IRBuilder &B, int64_t Index) {
  int32_t ArgP = B.newP();
  B.emitImmI(Opcode::LoadParam, Index, ArgP);
  int32_t X = B.newF();
  B.emit(Opcode::UnboxF, X, ArgP);
  return X;
}

size_t countOps(const IRFunction &F, Opcode Op) {
  return static_cast<size_t>(
      std::count_if(F.Code.begin(), F.Code.end(),
                    [Op](const Instr &In) { return In.Op == Op; }));
}

/// The bits of output 0 of \p F at real arguments \p Args on the VM.
uint64_t runBits(IRFunction F, std::vector<double> Args) {
  std::vector<ValuePtr> Boxed;
  for (double A : Args)
    Boxed.push_back(makeScalar(A));
  double R = execute(F, std::move(Boxed), 1)[0]->scalarValue();
  uint64_t Bits;
  std::memcpy(&Bits, &R, sizeof Bits);
  return Bits;
}

TEST(Select, ConstantOperandsRideInTheInstruction) {
  // out0 = (((3 + x) * 0.5 - 1) / 4) ^ 2 + 2, with the 2 an itof.
  IRFunction F;
  F.NumParams = 1;
  F.NumOuts = 1;
  IRBuilder B(F);
  int32_t X = realParam(B, 0);
  int32_t T1 = B.newF(), T2 = B.newF(), T3 = B.newF(), T4 = B.newF(),
          T5 = B.newF(), Two = B.newF();
  B.emit(Opcode::FAdd, T1, B.fconst(3), X); // left constant: commuted
  B.emit(Opcode::FMul, T2, T1, B.fconst(0.5));
  B.emit(Opcode::FSub, T3, T2, B.fconst(1));
  B.emit(Opcode::FDiv, T4, T3, B.fconst(4));
  B.emit(Opcode::IToF, Two, B.iconst(2));
  B.emit(Opcode::FPow, T5, T4, Two);
  B.emit(Opcode::FAdd, T5, T5, Two);
  returnF(B, T5);

  IRFunction Selected = F;
  SelectStats Stats = selectInstructions(Selected);
  EXPECT_EQ(Stats.NumImmediates, 7u);
  EXPECT_EQ(countOps(Selected, Opcode::FAddI), 2u);
  EXPECT_EQ(countOps(Selected, Opcode::FMulI), 1u);
  EXPECT_EQ(countOps(Selected, Opcode::FSubI), 1u);
  EXPECT_EQ(countOps(Selected, Opcode::FDivI), 1u);
  EXPECT_EQ(countOps(Selected, Opcode::FPowI), 1u);
  // Every constant became an immediate, the IToF's included.
  EXPECT_EQ(countOps(Selected, Opcode::IToF), 0u);
  EXPECT_EQ(countOps(Selected, Opcode::IConst), 0u);
  EXPECT_EQ(countOps(Selected, Opcode::FConst), 0u);
  for (double V : {0.0, -3.0, 7.25, std::numeric_limits<double>::infinity()})
    EXPECT_EQ(runBits(F, {V}), runBits(Selected, {V})) << V;
}

TEST(Select, IntegerImmediates) {
  // out0 = itof((7 + (n - 1)) - 5): both IAdd operands may be immediate.
  IRFunction F;
  F.NumParams = 1;
  F.NumOuts = 1;
  IRBuilder B(F);
  int32_t N = intParam(B);
  int32_t T1 = B.newI(), T2 = B.newI(), T3 = B.newI(), R = B.newF();
  B.emit(Opcode::ISub, T1, N, B.iconst(1));
  B.emit(Opcode::IAdd, T2, B.iconst(7), T1);
  B.emit(Opcode::ISub, T3, T2, B.iconst(INT64_C(-5)));
  B.emit(Opcode::IToF, R, T3);
  returnF(B, R);
  IRFunction Selected = F;
  selectInstructions(Selected);
  EXPECT_EQ(countOps(Selected, Opcode::ISubI), 2u);
  EXPECT_EQ(countOps(Selected, Opcode::IAddI), 1u);
  EXPECT_EQ(countOps(Selected, Opcode::IConst), 0u);
  auto R1 = execute(F, {makeValue(Value::intScalar(10))}, 1);
  auto R2 = execute(Selected, {makeValue(Value::intScalar(10))}, 1);
  EXPECT_EQ(R1[0]->scalarValue(), 21);
  EXPECT_EQ(R2[0]->scalarValue(), 21);
}

TEST(Select, ConstantWithTwoDefsIsNotFolded) {
  // c = 1; if x then c = 2; out0 = x + c: c's value depends on the path.
  IRFunction F;
  F.NumParams = 1;
  F.NumOuts = 1;
  IRBuilder B(F);
  int32_t X = realParam(B, 0);
  int32_t C = B.fconst(1);
  int32_t Flag = B.newI();
  B.emitImmI(Opcode::FCmp, static_cast<int64_t>(CondCode::GT), Flag, X,
             B.fconst(0));
  IRBuilder::Label Skip = B.newLabel();
  B.brz(Flag, Skip);
  B.emitImmF(Opcode::FConst, 2, C);
  B.bind(Skip);
  int32_t Sum = B.newF();
  B.emit(Opcode::FAdd, Sum, X, C);
  returnF(B, Sum);
  IRFunction Selected = F;
  selectInstructions(Selected);
  EXPECT_EQ(countOps(Selected, Opcode::FAdd), 1u);
  EXPECT_EQ(countOps(Selected, Opcode::FAddI), 0u);
  EXPECT_EQ(std::count_if(Selected.Code.begin(), Selected.Code.end(),
                          [C](const Instr &In) {
                            return In.Op == Opcode::FConst && In.A == C;
                          }),
            2);
  for (double V : {-1.0, 1.0})
    EXPECT_EQ(runBits(F, {V}), runBits(Selected, {V})) << V;
}

/// out0 = 1 when x <CC> y, else 2: FCmp, then Brz on its flag. With
/// \p ReadTwice the flag is also returned in the sum; with \p Target a
/// branch jumps to the Brz.
IRFunction buildCompareBranch(CondCode CC, bool ReadTwice = false,
                              bool Target = false) {
  IRFunction F;
  F.NumParams = 2;
  F.NumOuts = 1;
  IRBuilder B(F);
  int32_t X = realParam(B, 0), Y = realParam(B, 1);
  int32_t R = B.newF(), Flag = B.newI();
  IRBuilder::Label Cmp = B.newLabel(), Br = B.newLabel(),
                   Else = B.newLabel(), Done = B.newLabel();
  B.emitImmF(Opcode::FConst, 0, R);
  B.bind(Cmp);
  B.emitImmI(Opcode::FCmp, static_cast<int64_t>(CC), Flag, X, Y);
  B.bind(Br);
  B.brz(Flag, Else);
  B.emitImmF(Opcode::FConst, 1, R);
  B.br(Done);
  B.bind(Else);
  if (Target) {
    // The first time here (R was 0), jump back to the Brz, past the
    // compare; the second time, fall through.
    int32_t Again = B.newI();
    B.emitImmI(Opcode::FCmp, static_cast<int64_t>(CondCode::LT), Again, R,
               B.fconst(0.5));
    B.emitImmF(Opcode::FConst, 2, R);
    B.brnz(Again, Br);
  } else {
    B.emitImmF(Opcode::FConst, 2, R);
  }
  B.bind(Done);
  if (ReadTwice) {
    int32_t FlagF = B.newF();
    B.emit(Opcode::IToF, FlagF, Flag);
    B.emit(Opcode::FAdd, R, R, FlagF);
  }
  returnF(B, R);
  return F;
}

TEST(Select, CompareFusesWithTheBrzThatAloneReadsIt) {
  IRFunction F = buildCompareBranch(CondCode::LT);
  SelectStats Stats = selectInstructions(F);
  EXPECT_EQ(Stats.NumFusedBranches, 1u);
  EXPECT_EQ(countOps(F, Opcode::FCmpBrz), 1u);
  EXPECT_EQ(countOps(F, Opcode::FCmp), 0u);
  EXPECT_EQ(countOps(F, Opcode::Brz), 0u);
}

TEST(Select, FlagReadTwiceIsNotFused) {
  IRFunction F = buildCompareBranch(CondCode::LT, /*ReadTwice=*/true);
  IRFunction Selected = F;
  EXPECT_EQ(selectInstructions(Selected).NumFusedBranches, 0u);
  EXPECT_EQ(countOps(Selected, Opcode::FCmp), 1u);
  EXPECT_EQ(countOps(Selected, Opcode::Brz), 1u);
  for (double V : {0.0, 5.0})
    EXPECT_EQ(runBits(F, {V, 1}), runBits(Selected, {V, 1})) << V;
}

TEST(Select, BrzThatIsABranchTargetIsNotFused) {
  IRFunction F = buildCompareBranch(CondCode::LT, false, /*Target=*/true);
  IRFunction Selected = F;
  EXPECT_EQ(selectInstructions(Selected).NumFusedBranches, 0u);
  EXPECT_EQ(countOps(Selected, Opcode::Brz), 1u);
  for (double V : {0.0, 5.0})
    EXPECT_EQ(runBits(F, {V, 1}), runBits(Selected, {V, 1})) << V;
}

TEST(Select, NanCompareTakesTheSameEdgeFusedAsUnfused) {
  // Brz on FCmp's 0 branches on a NaN operand, and so does the fused
  // branch, for every condition code.
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  for (int64_t CC = 0; CC <= static_cast<int64_t>(CondCode::NE); ++CC) {
    IRFunction Unfused = buildCompareBranch(static_cast<CondCode>(CC));
    IRFunction Fused = Unfused;
    ASSERT_EQ(selectInstructions(Fused).NumFusedBranches, 1u);
    const std::pair<double, double> Operands[] = {
        {NaN, 1.0}, {1.0, NaN}, {NaN, NaN}, {1.0, 2.0}, {2.0, 1.0}, {1.0, 1.0}};
    for (auto [X, Y] : Operands)
      EXPECT_EQ(runBits(Unfused, {X, Y}), runBits(Fused, {X, Y}))
          << "cc " << CC << " (" << X << ", " << Y << ")";
  }
}

TEST(Select, NanLeftConstantIsNotCommuted) {
  // NaN + x keeps the constant's payload where x + NaN may keep x's, so
  // only a non-NaN left constant trades places with the register.
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  for (Opcode Op : {Opcode::FAdd, Opcode::FMul}) {
    for (double K : {NaN, 2.0}) {
      IRFunction F;
      F.NumParams = 1;
      F.NumOuts = 1;
      IRBuilder B(F);
      int32_t X = realParam(B, 0);
      int32_t R = B.newF();
      B.emit(Op, R, B.fconst(K), X);
      returnF(B, R);
      IRFunction Selected = F;
      selectInstructions(Selected);
      EXPECT_EQ(countOps(Selected, Op), std::isnan(K) ? 1u : 0u)
          << opcodeName(Op) << " " << K;
      EXPECT_EQ(runBits(F, {NaN}), runBits(Selected, {NaN}));
      EXPECT_EQ(runBits(F, {3.0}), runBits(Selected, {3.0}));
    }
  }
}

TEST(Select, UnrolledFalconHeaderHoldsOneImmediateAndOneFusedBranch) {
  // The unroller's k + 1 constant has a register of its own, so the
  // header of the unrolled loop is k' = k + 1 and one compare-branch.
  SourceManager SM;
  Diagnostics Diags;
  auto Mod = parseModule("f",
                         "function s = f(n)\ns = 0;\n"
                         "for k = 1:n\n  s = s + k;\nend\n",
                         SM, Diags);
  ASSERT_NE(Mod, nullptr) << Diags.render(SM);
  auto Info = disambiguate(*Mod->mainFunction(), *Mod);
  CompileRequest Req;
  Req.FI = Info.get();
  Req.Sig = TypeSignature({Type::scalar(IntrinsicType::Int)});
  Req.Mode = CodeGenMode::Optimized;
  auto R = compileFunction(Req);
  ASSERT_TRUE(R.has_value());
  ASSERT_EQ(R->Optimizer.NumLoopsUnrolled, 1u);
  const IRFunction &F = *R->Code;
  // The first back edge closes the unrolled loop.
  auto Back = std::find_if(F.Code.begin(), F.Code.end(), [&](const Instr &In) {
    return In.Op == Opcode::Br && &In - F.Code.data() > In.A;
  });
  ASSERT_NE(Back, F.Code.end()) << F.print();
  const Instr &Add = F.Code[Back->A];
  const Instr &Test = F.Code[Back->A + 1];
  EXPECT_EQ(Add.Op, Opcode::IAddI) << F.print();
  EXPECT_EQ(Add.Imm.I, 1);
  EXPECT_EQ(Test.Op, Opcode::ICmpBrz) << F.print();
  EXPECT_EQ(Test.B, Add.A);
  EXPECT_EQ(countOps(F, Opcode::ICmp) + countOps(F, Opcode::Brz), 0u)
      << F.print();
  Context Ctx;
  NoCalls Resolver;
  VM Machine(Ctx, Resolver);
  for (int N : {0, 1, 4, 7})
    EXPECT_EQ(
        Machine.run(F, {makeValue(Value::intScalar(N))}, 1)[0]->scalarValue(),
        N * (N + 1) / 2)
        << N;
}

//===----------------------------------------------------------------------===//
// Serialization: round trips and the structural validator
//===----------------------------------------------------------------------===//

IRFunction decodeBytes(const std::string &Bytes) {
  ser::ByteReader R(Bytes);
  return ser::readIRFunction(R);
}

std::string encodeFunction(const IRFunction &F) {
  ser::ByteWriter W;
  ser::writeIRFunction(W, F);
  return W.take();
}

/// The smallest function the validator accepts: one register of each class
/// and a lone Ret. Tests mutate it into each rejection case.
IRFunction tinyFunction() {
  IRFunction F;
  F.Name = "t";
  F.NumF = 1;
  F.NumI = 1;
  F.NumP = 1;
  F.Allocated = true;
  F.Code.push_back(Instr::make(Opcode::Ret));
  return F;
}

TEST(Serialize, RoundTripExecutesIdentically) {
  auto F = buildLoopFunction();
  allocateRegisters(*F, PlatformModel::sparc(), {});
  IRFunction G = decodeBytes(encodeFunction(*F));
  EXPECT_EQ(G.Name, F->Name);
  EXPECT_EQ(G.Code.size(), F->Code.size());

  Context Ctx;
  NoCalls Resolver;
  VM Machine(Ctx, Resolver);
  auto A = Machine.run(*F, {makeValue(Value::intScalar(5))}, 1);
  auto B = Machine.run(G, {makeValue(Value::intScalar(5))}, 1);
  EXPECT_DOUBLE_EQ(A[0]->scalarValue(), B[0]->scalarValue());
}

TEST(Serialize, SelectedOpcodesRoundTripAndExecuteIdentically) {
  // One of each register-immediate row and fused compare-branch, from
  // code selection, through the .mjo encoding and back.
  IRFunction F;
  F.NumParams = 2;
  F.NumOuts = 1;
  IRBuilder B(F);
  int32_t X = realParam(B, 0);
  int32_t ArgN = B.newP();
  B.emitImmI(Opcode::LoadParam, 1, ArgN);
  int32_t N = B.newI();
  B.emit(Opcode::UnboxI, N, ArgN);
  int32_t T[5], I1 = B.newI(), I2 = B.newI();
  for (int32_t &R : T)
    R = B.newF();
  B.emit(Opcode::FAdd, T[0], X, B.fconst(1.5));
  B.emit(Opcode::FSub, T[1], T[0], B.fconst(0.25));
  B.emit(Opcode::FMul, T[2], T[1], B.fconst(-2));
  B.emit(Opcode::FDiv, T[3], T[2], B.fconst(8));
  B.emit(Opcode::FPow, T[4], T[3], B.fconst(2));
  B.emit(Opcode::IAdd, I1, N, B.iconst(3));
  B.emit(Opcode::ISub, I2, I1, B.iconst(INT64_C(-4)));
  IRBuilder::Label L1 = B.newLabel(), L2 = B.newLabel();
  int32_t C1 = B.newI(), C2 = B.newI();
  B.emitImmI(Opcode::FCmp, static_cast<int64_t>(CondCode::LT), C1, T[4], X);
  B.brz(C1, L1);
  B.emit(Opcode::FAdd, T[4], T[4], X);
  B.bind(L1);
  B.emitImmI(Opcode::ICmp, static_cast<int64_t>(CondCode::GE), C2, I2, N);
  B.brz(C2, L2);
  B.emit(Opcode::FAdd, T[4], T[4], X);
  B.bind(L2);
  int32_t IF = B.newF(), Out = B.newF();
  B.emit(Opcode::IToF, IF, I2);
  B.emit(Opcode::FAdd, Out, T[4], IF);
  returnF(B, Out);

  selectInstructions(F);
  for (Opcode Op : {Opcode::IAddI, Opcode::ISubI, Opcode::FAddI,
                    Opcode::FSubI, Opcode::FMulI, Opcode::FDivI,
                    Opcode::FPowI, Opcode::FCmpBrz, Opcode::ICmpBrz})
    EXPECT_EQ(countOps(F, Op), 1u) << opcodeName(Op) << "\n" << F.print();
  allocateRegisters(F, PlatformModel::sparc(), {});
  IRFunction G = decodeBytes(encodeFunction(F));
  ASSERT_EQ(G.Code.size(), F.Code.size());
  for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
    const Instr &A = F.Code[Pos], &Bk = G.Code[Pos];
    EXPECT_TRUE(A.Op == Bk.Op && A.A == Bk.A && A.B == Bk.B && A.C == Bk.C &&
                A.D == Bk.D && A.Imm.I == Bk.Imm.I)
        << Pos << ": " << opcodeName(A.Op);
  }
  Context Ctx;
  NoCalls Resolver;
  VM Machine(Ctx, Resolver);
  for (double V : {-3.0, 0.5, 10.0})
    for (int64_t M : {-1, 6}) {
      auto Run = [&](const IRFunction &Fn) {
        return Machine
            .run(Fn, {makeScalar(V), makeValue(Value::intScalar(double(M)))},
                 1)[0]
            ->scalarValue();
      };
      EXPECT_EQ(Run(F), Run(G)) << V << ", " << M;
    }
}

TEST(Serialize, ValidatorRejectsAFusedBranchWithABadConditionCode) {
  for (Opcode Op : {Opcode::FCmpBrz, Opcode::ICmpBrz}) {
    for (int64_t CC : {int64_t(-1), int64_t(CondCode::NE) + 1, int64_t(99)}) {
      IRFunction F = tinyFunction();
      Instr In = Instr::make(Op, 1, 0, 0);
      In.Imm.I = CC;
      F.Code.insert(F.Code.begin(), In);
      EXPECT_THROW(ser::validateIRFunction(F), ser::SerializeError)
          << opcodeName(Op) << " " << CC;
    }
    IRFunction F = tinyFunction();
    Instr In = Instr::make(Op, 1, 0, 0);
    In.Imm.I = static_cast<int64_t>(CondCode::NE);
    F.Code.insert(F.Code.begin(), In);
    EXPECT_NO_THROW(ser::validateIRFunction(F)) << opcodeName(Op);
    F.Code.front().A = 2; // past the end
    EXPECT_THROW(ser::validateIRFunction(F), ser::SerializeError);
  }
}

TEST(Serialize, DecoderRejectsBranchPastTheEnd) {
  // A branch target equal to the instruction count is one past the last
  // instruction: the VM would dispatch off the end of the code array.
  IRFunction F = tinyFunction();
  F.Code.insert(F.Code.begin(),
                Instr::make(Opcode::Br, static_cast<int32_t>(2)));
  EXPECT_THROW(decodeBytes(encodeFunction(F)), ser::SerializeError);
}

TEST(Serialize, DecoderRejectsEmptyAndUnterminatedCode) {
  {
    IRFunction F = tinyFunction();
    F.Code.clear();
    EXPECT_THROW(decodeBytes(encodeFunction(F)), ser::SerializeError);
  }
  {
    // Execution falls through a trailing Nop and off the array.
    IRFunction F = tinyFunction();
    F.Code.back() = Instr::make(Opcode::Nop);
    EXPECT_THROW(decodeBytes(encodeFunction(F)), ser::SerializeError);
  }
  {
    // A trailing conditional branch falls through when not taken.
    IRFunction F = tinyFunction();
    F.Code.back() = Instr::make(Opcode::Brz, 0, 0);
    EXPECT_THROW(decodeBytes(encodeFunction(F)), ser::SerializeError);
  }
}

TEST(Serialize, ValidatorRejectsOutOfRangeOperands) {
  auto Rejects = [](IRFunction F) {
    EXPECT_THROW(ser::validateIRFunction(F), ser::SerializeError);
  };

  { // F register past the file.
    IRFunction F = tinyFunction();
    F.Code.insert(F.Code.begin(), Instr::make(Opcode::MovF, 0, 1));
    Rejects(std::move(F));
  }
  { // Negative register.
    IRFunction F = tinyFunction();
    F.Code.insert(F.Code.begin(), Instr::make(Opcode::MovP, 0, -1));
    Rejects(std::move(F));
  }
  { // StoreOut beyond NumOuts (the VM indexes Outs unchecked).
    IRFunction F = tinyFunction();
    Instr In = Instr::make(Opcode::StoreOut, 0);
    In.Imm.I = 3;
    F.Code.insert(F.Code.begin(), In);
    Rejects(std::move(F));
  }
  { // Negative parameter index (the VM only checks the upper bound).
    IRFunction F = tinyFunction();
    Instr In = Instr::make(Opcode::LoadParam, 0);
    In.Imm.I = -1;
    F.Code.insert(F.Code.begin(), In);
    Rejects(std::move(F));
  }
  // Self-calls: one I result, one F/I argument per parameter, one output,
  // parameters taken unboxed.
  auto SelfCall = [](unsigned NumParams, size_t NumOuts) {
    IRFunction F = tinyFunction();
    F.NumParams = NumParams;
    F.NumOuts = NumOuts;
    Instr In = Instr::make(Opcode::CallSelf, 0, NumParams ? 0 : -1);
    In.Imm.I = selfcall::encode(NumParams, /*IntArgMask=*/0);
    F.Code.insert(F.Code.begin(), In);
    return F;
  };
  EXPECT_NO_THROW(ser::validateIRFunction(SelfCall(1, 1)));
  Rejects(SelfCall(2, 1)); // fewer arguments than parameters
  Rejects(SelfCall(1, 2)); // more than one output
  { // An argument register outside its file.
    IRFunction F = SelfCall(1, 1);
    F.Code.front().B = 1;
    Rejects(std::move(F));
  }
  { // A boxed parameter: native code passes every parameter unboxed.
    IRFunction F = SelfCall(1, 1);
    Instr In = Instr::make(Opcode::LoadParam, 0);
    F.Code.insert(F.Code.begin(), In);
    Rejects(std::move(F));
  }
  { // Call whose pool range reaches past the pool.
    IRFunction F = tinyFunction();
    F.Names.push_back("zeros");
    Instr In = Instr::make(Opcode::CallB, 0, 0, 0, 2);
    In.Imm.I = 0;
    F.Code.insert(F.Code.begin(), In);
    Rejects(std::move(F));
  }
  { // Call name index past the name table.
    IRFunction F = tinyFunction();
    Instr In = Instr::make(Opcode::CallB, 0, 0, 0, 0);
    In.Imm.I = 5;
    F.Code.insert(F.Code.begin(), In);
    Rejects(std::move(F));
  }
  { // Pool entry that names a P register outside the file.
    IRFunction F = tinyFunction();
    F.Pool.push_back(7);
    F.Code.insert(F.Code.begin(), Instr::make(Opcode::HorzCat, 0, 0, 1));
    Rejects(std::move(F));
  }
  { // Spill slot index beyond the spill frame.
    IRFunction F = tinyFunction();
    Instr In = Instr::make(Opcode::FSpLd, 0);
    In.Imm.I = 0; // NumFSpill == 0
    F.Code.insert(F.Code.begin(), In);
    Rejects(std::move(F));
  }
  { // String index past the string table.
    IRFunction F = tinyFunction();
    Instr In = Instr::make(Opcode::SConst, 0);
    In.Imm.I = 0; // Strings is empty
    F.Code.insert(F.Code.begin(), In);
    Rejects(std::move(F));
  }
  { // Condition code outside the enum.
    IRFunction F = tinyFunction();
    Instr In = Instr::make(Opcode::ICmp, 0, 0, 0);
    In.Imm.I = 99;
    F.Code.insert(F.Code.begin(), In);
    Rejects(std::move(F));
  }
}

TEST(Serialize, ValidatorChecksEveryRegisterField) {
  // A function in which a register-0 instruction of every opcode
  // validates: one register of each class, spill slot, parameter, output,
  // name and string, and a pool holding P register 0 and a fused program.
  IRFunction F = tinyFunction();
  F.NumParams = F.NumOuts = 1;
  F.NumFSpill = F.NumISpill = F.NumPSpill = 1;
  F.Names.push_back("zeros");
  F.Strings.push_back("s");
  F.Pool = {0, ew::encode(ew::EwOp::Push, 0), ew::encode(ew::EwOp::Neg)};
  auto Accepted = [](Opcode Op) {
    Instr In = Instr::make(Op, 0, 0, 0, 0);
    if (Op == Opcode::FIntr1)
      In.Imm.I = static_cast<int64_t>(ScalarIntrinsic::Abs);
    if (Op == Opcode::FIntr2)
      In.Imm.I = static_cast<int64_t>(ScalarIntrinsic::Atan2);
    if (Op == Opcode::HorzCat || Op == Opcode::VertCat)
      In.C = 1; // operands pool[0, 1)
    if (Op == Opcode::LoadIdxG || Op == Opcode::StoreIdxG)
      In.D = 1; // subscripts pool[0, 1)
    if (Op == Opcode::CallB || Op == Opcode::CallU)
      In.B = In.D = 1; // one destination and one argument at pool[0]
    if (Op == Opcode::EwFuse) {
      In.C = In.D = 1; // operand table pool[0, 1), program pool[1, 3)
      In.Imm.I = 2;
    }
    return In;
  };
  auto WithCode = [&](const Instr &In) {
    IRFunction G = F;
    G.Code.insert(G.Code.begin(), In);
    return G;
  };
  auto CountOf = [&](OperandKind K) {
    switch (K) {
    case OperandKind::DefF:
    case OperandKind::UseF:
      return F.NumF;
    case OperandKind::DefI:
    case OperandKind::UseI:
      return F.NumI;
    default:
      return F.NumP;
    }
  };
  for (unsigned Raw = 0; Raw <= static_cast<unsigned>(kLastOpcode); ++Raw) {
    auto Op = static_cast<Opcode>(Raw);
    if (Op == Opcode::CallSelf)
      continue;
    const Instr In = Accepted(Op);
    EXPECT_NO_THROW(ser::validateIRFunction(WithCode(In))) << opcodeName(Op);
    InstrOperands Ops = instrOperands(In);
    for (unsigned K = 0; K != 4; ++K) {
      if (Ops.Fields[K] == OperandKind::None)
        continue;
      Instr Bad = In;
      int32_t *Fields[4] = {&Bad.A, &Bad.B, &Bad.C, &Bad.D};
      *Fields[K] = static_cast<int32_t>(CountOf(Ops.Fields[K]));
      EXPECT_THROW(ser::validateIRFunction(WithCode(Bad)), ser::SerializeError)
          << opcodeName(Op) << " field " << "ABCD"[K];
    }
  }
}

TEST(Serialize, ValidatorAcceptsCompiledCode) {
  auto F = buildLoopFunction();
  allocateRegisters(*F, PlatformModel::sparc(), {});
  EXPECT_NO_THROW(ser::validateIRFunction(*F));
}

//===----------------------------------------------------------------------===//
// EwFuse: fused-program round trips and validator rejections
//===----------------------------------------------------------------------===//

/// Builds: out = sin((a .* b) - c) as a single fused elementwise program
/// over three boxed parameters.
std::unique_ptr<IRFunction> buildEwFuseFunction() {
  auto F = std::make_unique<IRFunction>();
  F->Name = "fused";
  F->NumOuts = 1;
  F->NumParams = 3;
  IRBuilder B(*F);
  int32_t A = B.newP(), Bv = B.newP(), C = B.newP();
  B.emitImmI(Opcode::LoadParam, 0, A);
  B.emitImmI(Opcode::LoadParam, 1, Bv);
  B.emitImmI(Opcode::LoadParam, 2, C);
  int32_t Dst = B.newP();
  int32_t Table = B.pool({A, Bv, C});
  int32_t Prog = B.pool({
      ew::encode(ew::EwOp::Push, 0),
      ew::encode(ew::EwOp::Push, 1),
      ew::encode(ew::EwOp::Bin, static_cast<int32_t>(rt::BinOp::ElemMul)),
      ew::encode(ew::EwOp::Push, 2),
      ew::encode(ew::EwOp::Bin, static_cast<int32_t>(rt::BinOp::Sub)),
      ew::encode(ew::EwOp::Intr, static_cast<int32_t>(ScalarIntrinsic::Sin)),
  });
  Instr In = Instr::make(Opcode::EwFuse, Dst, Table, 3, Prog);
  In.Imm.I = 6;
  B.emit(In);
  B.emitImmI(Opcode::StoreOut, 0, Dst);
  B.emit(Opcode::Ret);
  B.finish();
  return F;
}

TEST(Serialize, EwFuseRoundTripExecutesIdentically) {
  auto F = buildEwFuseFunction();
  allocateRegisters(*F, PlatformModel::sparc(), {});
  EXPECT_NO_THROW(ser::validateIRFunction(*F));
  IRFunction G = decodeBytes(encodeFunction(*F));

  Value A = Value::zeros(2, 2), Bv = Value::zeros(2, 2), C = Value::zeros(2, 2);
  const double AD[] = {0.5, -3.0, 7.25, 0.0};
  const double BD[] = {2.0, 0.125, -1.5, 4.0};
  const double CD[] = {1.0, -0.25, 0.75, -2.0};
  std::copy(AD, AD + 4, A.reData());
  std::copy(BD, BD + 4, Bv.reData());
  std::copy(CD, CD + 4, C.reData());

  Context Ctx;
  NoCalls Resolver;
  VM Machine(Ctx, Resolver);
  auto MakeArgs = [&] {
    return std::vector<ValuePtr>{makeValue(Value(A)), makeValue(Value(Bv)),
                                 makeValue(Value(C))};
  };
  auto R1 = Machine.run(*F, MakeArgs(), 1);
  auto R2 = Machine.run(G, MakeArgs(), 1);
  ASSERT_EQ(R1[0]->numel(), 4u);
  ASSERT_EQ(R2[0]->numel(), 4u);
  for (size_t K = 0; K != 4; ++K) {
    double Want = std::sin(AD[K] * BD[K] - CD[K]);
    EXPECT_DOUBLE_EQ(R1[0]->re(K), Want);
    EXPECT_DOUBLE_EQ(R2[0]->re(K), Want);
  }
}

TEST(Serialize, ValidatorRejectsCorruptEwFusePrograms) {
  // Every mutation corrupts one aspect of the fused program; the validator
  // must reject each before the VM would execute it.
  auto FindFuse = [](IRFunction &F) -> Instr & {
    for (Instr &In : F.Code)
      if (In.Op == Opcode::EwFuse)
        return In;
    throw std::logic_error("no EwFuse instruction");
  };
  auto Rejects = [&](void (*Mutate)(IRFunction &, Instr &)) {
    auto F = buildEwFuseFunction();
    allocateRegisters(*F, PlatformModel::sparc(), {});
    Mutate(*F, FindFuse(*F));
    EXPECT_THROW(ser::validateIRFunction(*F), ser::SerializeError);
  };

  // Program shorter than any useful fusion (one push is not a chain).
  Rejects([](IRFunction &, Instr &In) { In.Imm.I = 1; });
  // Program range reaching past the pool.
  Rejects([](IRFunction &F, Instr &In) {
    In.D = static_cast<int32_t>(F.Pool.size()) - 2;
  });
  // Push of an operand index beyond the operand table.
  Rejects([](IRFunction &F, Instr &In) {
    F.Pool[In.D] = ew::encode(ew::EwOp::Push, In.C);
  });
  // Operand-table entry naming a P register outside the file.
  Rejects([](IRFunction &F, Instr &In) { F.Pool[In.B] = 99; });
  // Binary op that is not elementwise-fusable (backslash solve).
  Rejects([](IRFunction &F, Instr &In) {
    F.Pool[In.D + 2] =
        ew::encode(ew::EwOp::Bin, static_cast<int32_t>(rt::BinOp::MatLDiv));
  });
  // Entry whose opcode byte is outside the EwOp enum.
  Rejects([](IRFunction &F, Instr &In) { F.Pool[In.D + 3] = 0x07; });
  // Stack underflow: a binary op as the first program entry.
  Rejects([](IRFunction &F, Instr &In) {
    F.Pool[In.D] =
        ew::encode(ew::EwOp::Bin, static_cast<int32_t>(rt::BinOp::Add));
  });
  // Unbalanced program: two pushes and nothing to combine them.
  Rejects([](IRFunction &F, Instr &In) {
    F.Pool[In.D + 2] = ew::encode(ew::EwOp::Push, 0);
    F.Pool[In.D + 4] = ew::encode(ew::EwOp::Push, 1);
    F.Pool[In.D + 5] = ew::encode(ew::EwOp::Push, 2);
  });
  // Stack overflow: deeper than the executor's fixed evaluation stack.
  Rejects([](IRFunction &F, Instr &In) {
    std::vector<int32_t> Deep(ew::kMaxEwStack + 1,
                              ew::encode(ew::EwOp::Push, 0));
    In.D = static_cast<int32_t>(F.Pool.size());
    In.Imm.I = static_cast<int64_t>(Deep.size());
    F.Pool.insert(F.Pool.end(), Deep.begin(), Deep.end());
  });
}

} // namespace
