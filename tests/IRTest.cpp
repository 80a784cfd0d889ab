//===- tests/IRTest.cpp - IR, optimizer and register allocator ----------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/Optimize.h"
#include "backend/Platform.h"
#include "backend/RegAlloc.h"
#include "backend/VM.h"
#include "ir/Builder.h"
#include "ir/Operands.h"
#include "ir/Serialize.h"

#include <gtest/gtest.h>

using namespace majic;

namespace {

struct NoCalls : CallResolver {
  std::vector<ValuePtr> callFunction(const std::string &Name,
                                     std::vector<ValuePtr>, size_t,
                                     SourceLoc) override {
    throw MatlabError("unexpected call to '" + Name + "'");
  }
  bool knowsFunction(const std::string &) override { return false; }
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
  // The loop counter and accumulator live across the back edge; even under
  // spill-everything the interval extension must keep them correct.
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
  OptimizeOptions One;
  One.Rounds = 1;
  optimize(*F1, One);
  auto R1 = execute(*F1, {makeValue(Value::intScalar(6))}, 1);

  auto F2 = buildInvariantLoop();
  OptimizeOptions Two;
  Two.Rounds = 2;
  optimize(*F2, Two);
  auto R2 = execute(*F2, {makeValue(Value::intScalar(6))}, 1);
  EXPECT_DOUBLE_EQ(R1[0]->scalarValue(), R2[0]->scalarValue());
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
