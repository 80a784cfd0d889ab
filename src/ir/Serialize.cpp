//===- ir/Serialize.cpp - IR binary (de)serialization ----------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Serialize.h"

#include "ir/Operands.h"
#include "runtime/Builtins.h"

#include <algorithm>
#include <cstring>

using namespace majic;
using namespace majic::ser;

//===----------------------------------------------------------------------===//
// Type signatures
//===----------------------------------------------------------------------===//

namespace {

// Per-element encoded sizes (the arrayLen sanity floor).
constexpr size_t kTypeBytes = 1 + 4 * 8 + 2 * 8;  // intrinsic, 2 shapes, range
constexpr size_t kInstrBytes = 1 + 4 * 4 + 8;     // op, A..D, imm
constexpr size_t kLoopBytes = 4 * 4 + 2 * 4;      // 4 indices, 2 registers

void writeType(ByteWriter &W, const Type &T) {
  W.u8(static_cast<uint8_t>(T.intrinsic()));
  W.u64(T.minShape().Rows);
  W.u64(T.minShape().Cols);
  W.u64(T.maxShape().Rows);
  W.u64(T.maxShape().Cols);
  W.f64(T.range().Lo);
  W.f64(T.range().Hi);
}

Type readType(ByteReader &R) {
  uint8_t Raw = R.u8();
  if (Raw > static_cast<uint8_t>(IntrinsicType::Top))
    throw SerializeError("invalid intrinsic type");
  ShapeBound Min{R.u64(), R.u64()};
  ShapeBound Max{R.u64(), R.u64()};
  double Lo = R.f64(), Hi = R.f64();
  return Type(static_cast<IntrinsicType>(Raw), Min, Max,
              Range::interval(Lo, Hi));
}

} // namespace

void majic::ser::writeTypeSignature(ByteWriter &W, const TypeSignature &Sig) {
  W.u32(static_cast<uint32_t>(Sig.size()));
  for (const Type &T : Sig.types())
    writeType(W, T);
}

TypeSignature majic::ser::readTypeSignature(ByteReader &R) {
  uint32_t N = R.arrayLen(kTypeBytes);
  std::vector<Type> Types;
  Types.reserve(N);
  for (uint32_t I = 0; I != N; ++I)
    Types.push_back(readType(R));
  return TypeSignature(std::move(Types));
}

//===----------------------------------------------------------------------===//
// IR functions
//===----------------------------------------------------------------------===//

void majic::ser::writeIRFunction(ByteWriter &W, const IRFunction &F) {
  W.str(F.Name);
  W.u64(F.NumParams);
  W.u64(F.NumOuts);
  W.u32(static_cast<uint32_t>(F.OutNames.size()));
  for (const std::string &N : F.OutNames)
    W.str(N);

  W.u32(static_cast<uint32_t>(F.Code.size()));
  for (const Instr &In : F.Code) {
    W.u8(static_cast<uint8_t>(In.Op));
    W.i32(In.A);
    W.i32(In.B);
    W.i32(In.C);
    W.i32(In.D);
    W.i64(In.Imm.I);
  }

  W.u32(static_cast<uint32_t>(F.Pool.size()));
  for (int32_t V : F.Pool)
    W.i32(V);
  W.u32(static_cast<uint32_t>(F.Names.size()));
  for (const std::string &N : F.Names)
    W.str(N);
  W.u32(static_cast<uint32_t>(F.Strings.size()));
  for (const std::string &S : F.Strings)
    W.str(S);

  W.u32(F.NumF);
  W.u32(F.NumI);
  W.u32(F.NumP);
  W.u32(F.NumFSpill);
  W.u32(F.NumISpill);
  W.u32(F.NumPSpill);
  W.u8(F.Allocated ? 1 : 0);

  W.u32(static_cast<uint32_t>(F.Loops.size()));
  for (const LoopMeta &L : F.Loops) {
    W.u32(L.HeaderIndex);
    W.u32(L.BodyBegin);
    W.u32(L.LatchIndex);
    W.u32(L.ExitIndex);
    W.i32(L.CounterReg);
    W.i32(L.TripReg);
  }
}

IRFunction majic::ser::readIRFunction(ByteReader &R) {
  IRFunction F;
  F.Name = R.str();
  F.NumParams = R.u64();
  F.NumOuts = R.u64();
  if (F.NumParams > (1u << 20) || F.NumOuts > (1u << 20))
    throw SerializeError("implausible parameter count");
  uint32_t NumOutNames = R.arrayLen(4);
  if (NumOutNames > F.NumOuts)
    throw SerializeError("more output names than outputs");
  for (uint32_t O = 0; O != NumOutNames; ++O)
    F.OutNames.push_back(R.str());

  uint32_t NumInstr = R.arrayLen(kInstrBytes);
  F.Code.reserve(NumInstr);
  constexpr uint8_t MaxOp = static_cast<uint8_t>(kLastOpcode);
  for (uint32_t I = 0; I != NumInstr; ++I) {
    Instr In;
    uint8_t Op = R.u8();
    if (Op > MaxOp)
      throw SerializeError("invalid opcode");
    In.Op = static_cast<Opcode>(Op);
    In.A = R.i32();
    In.B = R.i32();
    In.C = R.i32();
    In.D = R.i32();
    In.Imm.I = R.i64();
    F.Code.push_back(In);
  }

  uint32_t NumPool = R.arrayLen(4);
  F.Pool.reserve(NumPool);
  for (uint32_t I = 0; I != NumPool; ++I)
    F.Pool.push_back(R.i32());
  uint32_t NumNames = R.arrayLen(4);
  F.Names.reserve(NumNames);
  for (uint32_t I = 0; I != NumNames; ++I)
    F.Names.push_back(R.str());
  uint32_t NumStrings = R.arrayLen(4);
  F.Strings.reserve(NumStrings);
  for (uint32_t I = 0; I != NumStrings; ++I)
    F.Strings.push_back(R.str());

  F.NumF = R.u32();
  F.NumI = R.u32();
  F.NumP = R.u32();
  F.NumFSpill = R.u32();
  F.NumISpill = R.u32();
  F.NumPSpill = R.u32();
  if (F.NumF > (1u << 24) || F.NumI > (1u << 24) || F.NumP > (1u << 24) ||
      F.NumFSpill > (1u << 24) || F.NumISpill > (1u << 24) ||
      F.NumPSpill > (1u << 24))
    throw SerializeError("implausible register count");
  F.Allocated = R.u8() != 0;

  uint32_t NumLoops = R.arrayLen(kLoopBytes);
  F.Loops.reserve(NumLoops);
  for (uint32_t I = 0; I != NumLoops; ++I) {
    LoopMeta L;
    L.HeaderIndex = R.u32();
    L.BodyBegin = R.u32();
    L.LatchIndex = R.u32();
    L.ExitIndex = R.u32();
    L.CounterReg = R.i32();
    L.TripReg = R.i32();
    F.Loops.push_back(L);
  }
  validateIRFunction(F);
  F.resolveBuiltins();
  return F;
}

//===----------------------------------------------------------------------===//
// Structural validation
//===----------------------------------------------------------------------===//

namespace {

void checkIntrinsic(int64_t I, unsigned Arity) {
  if (I < 0 || I > static_cast<int64_t>(ScalarIntrinsic::Hypot) ||
      scalarIntrinsicArity(static_cast<ScalarIntrinsic>(I)) != Arity)
    throw SerializeError("invalid scalar intrinsic");
}

/// The postfix program of an EwFuse must be well formed before the VM may
/// run it: simulate it against the fixed-depth evaluation stack.
void checkEwProgram(const IRFunction &F, const Instr &In) {
  int64_t ProgLen = In.Imm.I;
  if (ProgLen < 2)
    throw SerializeError("fused program too short");
  if (In.D < 0 ||
      static_cast<uint64_t>(In.D) + static_cast<uint64_t>(ProgLen) >
          F.Pool.size())
    throw SerializeError("fused program out of bounds");
  int32_t Sp = 0;
  for (int64_t K = 0; K != ProgLen; ++K) {
    int32_t Entry = F.Pool[In.D + K];
    int32_t Arg = ew::argOf(Entry);
    switch (ew::opOf(Entry)) {
    case ew::EwOp::Push:
      if (Arg < 0 || Arg >= In.C)
        throw SerializeError("fused operand index out of range");
      if (++Sp > ew::kMaxEwStack)
        throw SerializeError("fused program overflows stack");
      break;
    case ew::EwOp::Bin:
      if (Arg < 0 || Arg > static_cast<int32_t>(rt::BinOp::ElemPow) ||
          !ew::isFusableBinOp(static_cast<rt::BinOp>(Arg)))
        throw SerializeError("invalid fused binary op");
      if (Sp < 2)
        throw SerializeError("fused program underflows stack");
      --Sp;
      break;
    case ew::EwOp::Neg:
      if (Sp < 1)
        throw SerializeError("fused program underflows stack");
      break;
    case ew::EwOp::Intr:
      checkIntrinsic(Arg, /*Arity=*/1);
      if (Sp < 1)
        throw SerializeError("fused program underflows stack");
      break;
    default:
      throw SerializeError("invalid fused program entry");
    }
  }
  if (Sp != 1)
    throw SerializeError("fused program leaves stack unbalanced");
}

} // namespace

void majic::ser::validateIRFunction(const IRFunction &F) {
  const uint32_t NumInstr = static_cast<uint32_t>(F.Code.size());
  // The VM dispatches in an unbounded `Code[PC]` loop that only stops on
  // Ret, so empty code - or any path that falls past the last instruction -
  // reads off the end of the array.
  if (NumInstr == 0)
    throw SerializeError("empty code array");

  // Register files and spill frames, indexed by RegClass.
  const uint32_t NumRegs[] = {F.NumF, F.NumI, F.NumP};
  const uint32_t NumSlots[] = {F.NumFSpill, F.NumISpill, F.NumPSpill};
  static const char *const RegRange[] = {"F register out of range",
                                         "I register out of range",
                                         "P register out of range"};
  static const char *const SlotRange[] = {"F spill slot out of range",
                                          "I spill slot out of range",
                                          "P spill slot out of range"};
  auto Reg = [&](RegClass C, int32_t R) {
    if (R < 0 || static_cast<uint32_t>(R) >= NumRegs[static_cast<size_t>(C)])
      throw SerializeError(RegRange[static_cast<size_t>(C)]);
  };
  auto Index = [&](int64_t I, size_t N, const char *What) {
    if (I < 0 || static_cast<uint64_t>(I) >= N)
      throw SerializeError(What);
  };
  // A pool-backed operand list: offset Off, length Len, every entry a P
  // register. A zero-length list may carry any offset (codegen leaves the
  // field at its -1 default when there is nothing to point at).
  auto PoolP = [&](int32_t Off, int32_t Len) {
    if (Len < 0)
      throw SerializeError("negative pool operand count");
    if (Len == 0)
      return;
    if (Off < 0 || static_cast<uint64_t>(Off) + static_cast<uint64_t>(Len) >
                       F.Pool.size())
      throw SerializeError("pool range out of bounds");
    for (int32_t K = 0; K != Len; ++K)
      Reg(RegClass::P, F.Pool[Off + K]);
  };
  // The index list of LoadIdxG/StoreIdxG: one or two subscripts, each a P
  // register or -1 for ':'.
  auto PoolIdx = [&](int32_t Off, int32_t Len) {
    if (Len != 1 && Len != 2)
      throw SerializeError("invalid subscript count");
    if (Off < 0 || static_cast<uint64_t>(Off) + static_cast<uint64_t>(Len) >
                       F.Pool.size())
      throw SerializeError("pool range out of bounds");
    for (int32_t K = 0; K != Len; ++K)
      if (F.Pool[Off + K] != -1)
        Reg(RegClass::P, F.Pool[Off + K]);
  };

  bool HasSelfCall = false;
  for (const Instr &In : F.Code) {
    const OpcodeInfo &Info = opcodeInfo(In.Op);
    if (In.Op == Opcode::CallSelf) {
      // The callee is this function: its arguments fill its parameters,
      // and it must have the output the call asks for. The immediate
      // selects the classes of the argument fields; the rest stay -1.
      int64_t Imm = In.Imm.I;
      unsigned NumArgs = selfcall::numArgs(Imm);
      if (Imm < 0 || Imm >= selfcall::encode(0, 1u << NumArgs) ||
          NumArgs != F.NumParams || F.NumOuts != 1)
        throw SerializeError("invalid self-call");
      const int32_t Args[selfcall::kMaxArgs] = {In.B, In.C, In.D};
      for (unsigned K = NumArgs; K != selfcall::kMaxArgs; ++K)
        if (Args[K] != -1)
          throw SerializeError("invalid self-call");
      HasSelfCall = true;
    }

    // Every register field, by its kind in ir/Opcodes.def.
    if (isBranch(In.Op) &&
        (In.A < 0 || static_cast<uint32_t>(In.A) >= NumInstr))
      throw SerializeError("branch target out of range");
    const InstrOperands Ops = instrOperands(In);
    const int32_t Fields[4] = {In.A, In.B, In.C, In.D};
    for (unsigned K = 0; K != 4; ++K)
      if (Ops.Fields[K] != OperandKind::None)
        Reg(regClass(Ops.Fields[K]), Fields[K]);

    const int64_t Imm = In.Imm.I;
    switch (Info.Imm) {
    case ImmKind::None:
    case ImmKind::F64:
    case ImmKind::I64:
    case ImmKind::Program:  // after the operand table, below
    case ImmKind::SelfCall: // above
      break;
    case ImmKind::String:
      Index(Imm, F.Strings.size(), "string index out of range");
      break;
    case ImmKind::Cond:
      if (Imm < 0 || Imm > static_cast<int64_t>(CondCode::NE))
        throw SerializeError("invalid condition code");
      break;
    case ImmKind::Intr1:
      checkIntrinsic(Imm, 1);
      break;
    case ImmKind::Intr2:
      checkIntrinsic(Imm, 2);
      break;
    case ImmKind::Name:
      Index(Imm, F.Names.size(), "name index out of range");
      break;
    case ImmKind::Class:
      if (Imm < 0 || Imm > static_cast<int64_t>(MClass::String))
        throw SerializeError("invalid matrix class");
      break;
    case ImmKind::BinOp:
      if (Imm < 0 || Imm > static_cast<int64_t>(rt::BinOp::Or))
        throw SerializeError("invalid binary op");
      break;
    case ImmKind::UnOp:
      if (Imm < 0 || Imm > static_cast<int64_t>(rt::UnOp::Transpose))
        throw SerializeError("invalid unary op");
      break;
    case ImmKind::Callee:
      Index(Imm & ~kStatementCallFlag, F.Names.size(),
            "call name index out of range");
      break;
    case ImmKind::Param:
      Index(Imm, F.NumParams, "parameter index out of range");
      break;
    case ImmKind::Out:
      Index(Imm, F.NumOuts, "output index out of range");
      break;
    case ImmKind::Slot: {
      auto C = static_cast<size_t>(regClass(Info.Fields[0]));
      Index(Imm, NumSlots[C], SlotRange[C]);
      break;
    }
    }

    switch (Info.Pool) {
    case PoolLayout::None:
      break;
    case PoolLayout::List:
      PoolP(In.B, In.C);
      break;
    case PoolLayout::Subs:
      PoolIdx(In.C, In.D);
      break;
    case PoolLayout::Call:
      PoolP(In.A, In.B); // destinations
      PoolP(In.C, In.D); // arguments
      break;
    }
    if (Info.Imm == ImmKind::Program)
      checkEwProgram(F, In);
  }

  // A function that calls itself directly takes its parameters unboxed
  // (ArgF/ArgI), which its native typed body relies on.
  if (HasSelfCall &&
      std::any_of(F.Code.begin(), F.Code.end(), [](const Instr &In) {
        return In.Op == Opcode::LoadParam;
      }))
    throw SerializeError("self-call in a function with boxed parameters");

  // The only ways not to fall through an instruction are Ret and an
  // unconditional Br (whose target is validated above); anything else as
  // the final instruction would run the VM off the code array.
  Opcode Last = F.Code.back().Op;
  if (Last != Opcode::Ret && Last != Opcode::Br)
    throw SerializeError("code does not end in a terminator");
}
