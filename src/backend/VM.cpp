//===- backend/VM.cpp - The register VM ----------------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One switch over the opcode runs allocated IR. The register-only opcodes
// are the expression rows of ir/Opcodes.def, expanded here as their cases
// over the frame's register files and spill arrays; the C emitter prints
// the same rows, so the two tiers compute them alike. The other cases are
// written out, and the operations on boxed values they share with native
// code live in exec:: (backend/ExecShared.h).
//
//===----------------------------------------------------------------------===//

#include "backend/VM.h"

#include "backend/ExecShared.h"
#include "ir/Operands.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/Builtins.h"
#include "runtime/Ops.h"
#include "support/Parallel.h"
#include "support/ResourceGuard.h"
#include "support/StringUtils.h"

#include <cmath>
#include <utility>

using namespace majic;
using rt::Indexer;

namespace {

bool evalCond(CondCode CC, double A, double B) {
  switch (CC) {
  case CondCode::LT:
    return A < B;
  case CondCode::LE:
    return A <= B;
  case CondCode::GT:
    return A > B;
  case CondCode::GE:
    return A >= B;
  case CondCode::EQ:
    return A == B;
  case CondCode::NE:
    return A != B;
  }
  majic_unreachable("invalid condition code");
}

// The operations on boxed values, shared with the native tier
// (backend/ExecShared.h): an opcode case only moves its operands.
using exec::checkIntrinsicGuard;
using exec::integerScalar;
using exec::realScalar;
using exec::requireRealData;
using exec::requireValue;

/// The arguments of a direct self-call's frame: its parameters arrive as
/// scalars (VM::DirectCall).
const std::vector<ValuePtr> NoArgs;

/// Minimum elements before the fused elementwise loop goes parallel
/// (matches the interpreter's ElemGrain: these loops are memory-bound).
constexpr size_t kEwGrain = 32768;

/// Executes one fused elementwise program (Opcode::EwFuse) in a single
/// pass over the data: zero intermediate Values, one parallelFor, one
/// store per output element.
///
/// Bit-identity with the interpreter's unfused chain rests on three
/// points. (1) The result shape and class are resolved by simulating the
/// postfix program through the interpreter's own broadcast and
/// class-promotion rules, in the interpreter's evaluation order, so
/// dimension errors carry the identical operator name and shapes.
/// (2) Every element's value depends only on its own index, and the
/// per-element op order is exactly the program order - no reassociation -
/// so chunk boundaries (thread count) cannot change results. (3) Each
/// program op runs as its own strip loop storing to a stack-slot array,
/// so the compiler cannot contract a multiply and an add into an FMA
/// across ops, just as the interpreter's separate memory passes cannot.
Value runEwFuse(const IRFunction &F, const Instr &In, const ValuePtr *PR) {
  const int32_t *Prog = F.Pool.data() + In.D;
  const size_t ProgLen = static_cast<size_t>(In.Imm.I);
  const int32_t NumOps = In.C;

  // Operand table. Codegen only fuses positions inference typed as real
  // arrays; a complex or string value reaching one anyway means an
  // optimistic assumption failed, so deoptimize (the interpreter fallback
  // produces the general-semantics result) rather than risk divergence.
  // The operand checks and the Pass-1 shape/class simulation live in
  // exec::ewSimulate, shared verbatim with the native tier's allocation
  // shim so both tiers raise identical errors and allocate identically.
  std::vector<const Value *> Ops(NumOps);
  for (int32_t K = 0; K != NumOps; ++K)
    Ops[K] = PR[F.Pool[In.B + K]].get();

  exec::EwPlan Plan = exec::ewSimulate(Ops.data(), NumOps, Prog, ProgLen);
  Value Out = Value::uninit(Plan.Rows, Plan.Cols, Plan.Class);
  size_t N = Out.numel();
  if (N == 0)
    return Out;

  // Hoist per-operand addressing out of the element loop. Every non-scalar
  // operand has exactly the result shape (broadcasting admits only
  // scalar-or-equal, so any other shape was rejected by the simulation).
  std::vector<const double *> Data(NumOps);
  std::vector<double> Splat(NumOps, 0.0);
  std::vector<uint8_t> IsScal(NumOps, 0);
  for (int32_t K = 0; K != NumOps; ++K) {
    if (Ops[K]->isScalar()) {
      IsScal[K] = 1;
      Splat[K] = Ops[K]->re(0);
    } else {
      Data[K] = Ops[K]->reData();
    }
  }

  double *PO = Out.reData();
  constexpr size_t kStrip = 128;
  auto Body = [&](size_t Begin, size_t End) {
    // Stack slots are (pointer, stride) views: a Push is free (it aliases
    // the operand strip or its scalar splat), each operator writes its
    // slot's scratch strip, and the final operator writes the output array
    // directly - so a balanced program is one pass over main memory with
    // no per-push copying. A valid program's last entry is always an
    // operator: the stack depth never returns to zero after the first
    // push, so a trailing Push could not leave the required depth of one.
    struct Slot {
      const double *P;
      size_t S; ///< 0 = broadcast scalar, 1 = vector strip
    };
    alignas(64) double Scratch[ew::kMaxEwStack][kStrip];
    double ScalOut[ew::kMaxEwStack];
    Slot Stack[ew::kMaxEwStack];
    for (size_t S0 = Begin; S0 < End; S0 += kStrip) {
      const size_t Len = std::min(kStrip, End - S0);
      int Top = 0;
      for (size_t K = 0; K != ProgLen; ++K) {
        const int32_t Arg = ew::argOf(Prog[K]);
        const bool IsLast = K + 1 == ProgLen;
        switch (ew::opOf(Prog[K])) {
        case ew::EwOp::Push:
          Stack[Top] = IsScal[Arg] ? Slot{&Splat[Arg], 0}
                                   : Slot{Data[Arg] + S0, 1};
          ++Top;
          break;
        case ew::EwOp::Bin: {
          const Slot L = Stack[Top - 2], R = Stack[Top - 1];
          --Top;
          double *D = IsLast ? PO + S0 : Scratch[Top - 1];
          // One strip loop per operator (matching the interpreter's one
          // memory pass per op), so the compiler cannot contract a
          // multiply and an add from different ops into an FMA.
          auto Apply = [&](auto Op) {
            if (L.S && R.S) {
              for (size_t I = 0; I != Len; ++I)
                D[I] = Op(L.P[I], R.P[I]);
            } else if (L.S) {
              const double Y = *R.P;
              for (size_t I = 0; I != Len; ++I)
                D[I] = Op(L.P[I], Y);
            } else if (R.S) {
              const double X = *L.P;
              for (size_t I = 0; I != Len; ++I)
                D[I] = Op(X, R.P[I]);
            } else {
              const double V = Op(*L.P, *R.P);
              if (!IsLast) {
                ScalOut[Top - 1] = V;
                Stack[Top - 1] = {&ScalOut[Top - 1], 0};
                return; // scalar result: stays a broadcast view
              }
              for (size_t I = 0; I != Len; ++I)
                D[I] = V;
            }
            Stack[Top - 1] = {D, 1};
          };
          switch (static_cast<rt::BinOp>(Arg)) {
          case rt::BinOp::Add:
            Apply([](double X, double Y) { return X + Y; });
            break;
          case rt::BinOp::Sub:
            Apply([](double X, double Y) { return X - Y; });
            break;
          case rt::BinOp::ElemMul:
          case rt::BinOp::MatMul: // scalar side proven above
            Apply([](double X, double Y) { return X * Y; });
            break;
          case rt::BinOp::ElemRDiv:
          case rt::BinOp::MatRDiv: // scalar divisor proven above
            Apply([](double X, double Y) { return X / Y; });
            break;
          case rt::BinOp::ElemPow:
            for (size_t I = 0; I != Len; ++I) {
              const double X = L.P[I * L.S], Y = R.P[I * R.S];
              // The interpreter escalates a negative base with a
              // non-integral exponent to a complex result; the fused loop
              // cannot, so hand the whole chain back to it.
              if (X < 0 && Y != std::floor(Y))
                throw DeoptError{ScalarIntrinsic::None, X};
              D[I] = std::pow(X, Y);
            }
            Stack[Top - 1] = {D, 1};
            break;
          default:
            majic_unreachable("non-fusable binary op in fused program");
          }
          break;
        }
        case ew::EwOp::Neg: {
          const Slot T = Stack[Top - 1];
          if (T.S == 0 && !IsLast) {
            ScalOut[Top - 1] = -*T.P;
            Stack[Top - 1] = {&ScalOut[Top - 1], 0};
            break;
          }
          double *D = IsLast ? PO + S0 : Scratch[Top - 1];
          if (T.S) {
            for (size_t I = 0; I != Len; ++I)
              D[I] = -T.P[I];
          } else {
            const double V = -*T.P;
            for (size_t I = 0; I != Len; ++I)
              D[I] = V;
          }
          Stack[Top - 1] = {D, 1};
          break;
        }
        case ew::EwOp::Intr: {
          const auto Intr = static_cast<ScalarIntrinsic>(Arg);
          const Slot T = Stack[Top - 1];
          const bool Guarded = scalarIntrinsicNeedsGuard(Intr);
          if (T.S == 0) {
            const double X = *T.P;
            if (Guarded)
              checkIntrinsicGuard(Intr, X);
            const double V = evalScalarIntrinsic1(Intr, X);
            if (!IsLast) {
              ScalOut[Top - 1] = V;
              Stack[Top - 1] = {&ScalOut[Top - 1], 0};
              break;
            }
            double *D = PO + S0;
            for (size_t I = 0; I != Len; ++I)
              D[I] = V;
            Stack[Top - 1] = {D, 1};
            break;
          }
          if (Guarded)
            for (size_t I = 0; I != Len; ++I)
              checkIntrinsicGuard(Intr, T.P[I]);
          double *D = IsLast ? PO + S0 : Scratch[Top - 1];
          for (size_t I = 0; I != Len; ++I)
            D[I] = evalScalarIntrinsic1(Intr, T.P[I]);
          Stack[Top - 1] = {D, 1};
          break;
        }
        }
      }
    }
  };
  // A one-element result runs inline: no region set-up, but the same
  // interrupt poll a region entry makes.
  if (N == 1) {
    exec::pollInterrupt();
    Body(0, 1);
  } else {
    par::parallelFor(N, kEwGrain, Body);
  }
  return Out;
}

} // namespace

/// Leases Frames[Depth] to one invocation. On return and on unwind it
/// drops the frame's value references, so a finished call keeps no values
/// (or their tracked bytes) alive, and once the outermost invocation ends
/// it trims the frames a deep recursion left behind and credits the
/// direct calls the invocation made.
class VM::FrameScope {
public:
  FrameScope(VM &M, const IRFunction &F) : M(M) {
    if (M.Depth == M.Frames.size())
      M.Frames.push_back(std::make_unique<Frame>());
    Fr = M.Frames[M.Depth].get();
    Fr->FR.assign(F.NumF, 0.0);
    Fr->IR.assign(F.NumI, 0);
    Fr->PR.resize(F.NumP);
    Fr->FSp.assign(F.NumFSpill, 0.0);
    Fr->ISp.assign(F.NumISpill, 0);
    Fr->PSp.resize(F.NumPSpill);
    Fr->Outs.resize(F.NumOuts);
    ++M.Depth;
  }
  ~FrameScope() {
    Fr->PR.clear();
    Fr->PSp.clear();
    Fr->Outs.clear();
    if (--M.Depth != 0)
      return;
    if (M.Frames.size() > kRetainedFrames)
      M.Frames.resize(kRetainedFrames);
    if (M.DirectCallSink && M.DirectCalls)
      M.DirectCallSink->inc(std::exchange(M.DirectCalls, 0));
  }
  FrameScope(const FrameScope &) = delete;
  FrameScope &operator=(const FrameScope &) = delete;

  Frame &frame() const { return *Fr; }

private:
  VM &M;
  Frame *Fr;
};

std::vector<ValuePtr> VM::run(const IRFunction &F, std::vector<ValuePtr> Args,
                              size_t NumOuts) {
  assert(F.Allocated && "VM requires register-allocated code");
  assert(F.Builtins.size() == F.Names.size() && "builtins not resolved");
  obs::TraceScope Span("vm.run", "exec", F.Name);
  return execute(F, Args, NumOuts, nullptr);
}

std::vector<ValuePtr> VM::execute(const IRFunction &F,
                                  const std::vector<ValuePtr> &Args,
                                  size_t NumOuts, DirectCall *Direct) {
  // Register files (physical) and spill frames. The vectors are sized on
  // entry and never resized while this invocation runs, so raw pointers
  // stay valid across nested calls (which lease deeper frames).
  FrameScope Scope(*this, F);
  Frame &Fr = Scope.frame();
  double *const FR = Fr.FR.data();
  int64_t *const IR = Fr.IR.data();
  ValuePtr *const PR = Fr.PR.data();
  double *const FSp = Fr.FSp.data();
  int64_t *const ISp = Fr.ISp.data();
  ValuePtr *const PSp = Fr.PSp.data();
  std::vector<ValuePtr> &Outs = Fr.Outs;
  const BuiltinDef *const *Builtins = F.Builtins.data();

  const Instr *Code = F.Code.data();
  size_t PC = 0;
  uint64_t Count = 0;

  static const ValuePtr Absent;
  auto Param = [&](int64_t K) -> const ValuePtr & {
    return K < static_cast<int64_t>(Args.size()) ? Args[K] : Absent;
  };
  // Register lists for exec:: operations: entry K of the list at pool
  // offset Off. The closures copy the register-file pointer rather than
  // capture it, so it stays in a register in the dispatch loop.
  const int32_t *const Pool = F.Pool.data();
  auto PoolReg = [PR, Pool](int32_t Off) {
    return [PR, Pool, Off](int K) -> const ValuePtr & {
      return PR[Pool[Off + K]];
    };
  };
  auto ToPoolReg = [PR, Pool](int32_t Off) {
    return [PR, Pool, Off](int K, ValuePtr V) {
      PR[Pool[Off + K]] = std::move(V);
    };
  };

  while (true) {
    const Instr &In = Code[PC];
    ++Count;
    // Execution-limit poll (op budget + cooperative interrupt) every 256
    // dispatches: cheap enough for the hot loop, frequent enough that a
    // runaway program or a Ctrl-C unwinds within microseconds.
    if ((Count & 0xFF) == 0)
      Ctx.Exec.consume(256);
    switch (In.Op) {
    case Opcode::Nop:
      break;

      // The expression rows of ir/Opcodes.def, one case each, over this
      // frame's registers and spill slots.
#define F(X) FR[In.X]
#define I(X) IR[In.X]
#define P(X) PR[In.X]
#define IMM immediate<Row>(In)
#define fsp FSp
#define isp ISp
#define psp PSp
#define OPCODE_EXPR(Name, Expr)                                                \
  case Opcode::Name: {                                                         \
    [[maybe_unused]] constexpr Opcode Row = Opcode::Name;                      \
    Expr;                                                                      \
    break;                                                                     \
  }
#define OPCODE_SPILL_EXPR OPCODE_EXPR
#include "ir/Opcodes.def"
#undef F
#undef I
#undef P
#undef IMM
#undef fsp
#undef isp
#undef psp

    case Opcode::SConst:
      PR[In.A] = makeValue(Value::str(F.Strings[In.Imm.I]));
      break;
    case Opcode::MovP:
      PR[In.A] = PR[In.B];
      break;
    case Opcode::FToIdx:
      IR[In.A] = static_cast<int64_t>(rt::checkSubscript(FR[In.B]));
      break;

    case Opcode::FCmp:
      IR[In.A] = evalCond(static_cast<CondCode>(In.Imm.I), FR[In.B], FR[In.C]);
      break;
    case Opcode::FIntr1: {
      auto Intr = static_cast<ScalarIntrinsic>(In.Imm.I);
      checkIntrinsicGuard(Intr, FR[In.B]);
      FR[In.A] = evalScalarIntrinsic1(Intr, FR[In.B]);
      break;
    }
    case Opcode::FIntr2:
      FR[In.A] = evalScalarIntrinsic2(
          static_cast<ScalarIntrinsic>(In.Imm.I), FR[In.B], FR[In.C]);
      break;

    case Opcode::ICmp:
      // Compares through double; emitted C compares long long (CEmitter.cpp).
      IR[In.A] = evalCond(static_cast<CondCode>(In.Imm.I),
                          static_cast<double>(IR[In.B]),
                          static_cast<double>(IR[In.C]));
      break;

    case Opcode::Br:
      PC = static_cast<size_t>(In.A);
      continue;
    case Opcode::Brz:
      if (IR[In.B] == 0) {
        PC = static_cast<size_t>(In.A);
        continue;
      }
      break;
    case Opcode::Brnz:
      if (IR[In.B] != 0) {
        PC = static_cast<size_t>(In.A);
        continue;
      }
      break;
    case Opcode::FCmpBrz:
      // Not taken only when the compare holds, so a NaN operand branches
      // as Brz does on FCmp's 0.
      if (!evalCond(static_cast<CondCode>(In.Imm.I), FR[In.B], FR[In.C])) {
        PC = static_cast<size_t>(In.A);
        continue;
      }
      break;
    case Opcode::ICmpBrz:
      // Compares through double, as ICmp does; emitted C compares long
      // long (CEmitter.cpp).
      if (!evalCond(static_cast<CondCode>(In.Imm.I),
                    static_cast<double>(IR[In.B]),
                    static_cast<double>(IR[In.C]))) {
        PC = static_cast<size_t>(In.A);
        continue;
      }
      break;
    case Opcode::Ret:
      Ctx.Exec.consume(Count & 0xFF); // the tail not covered by the poll
      InstrCount += Count;
      if (!Direct)
        return exec::takeOutputs(Outs, NumOuts, F.Name, F.OutNames);
      // A boxed result (StoreOut) is checked as a resolver call's is.
      if (!Direct->HasResult)
        Direct->Result = integerScalar(requireValue(
            exec::takeOutputs(Outs, 1, F.Name, F.OutNames)[0]));
      return {};

    case Opcode::BoxF:
      PR[In.A] = makeScalar(FR[In.B]);
      break;
    case Opcode::BoxI:
      PR[In.A] = makeValue(Value::intScalar(static_cast<double>(IR[In.B])));
      break;
    case Opcode::BoxB:
      PR[In.A] = makeBool(IR[In.B] != 0);
      break;
    case Opcode::BoxC:
      PR[In.A] = makeValue(Value::complexScalar(FR[In.B], FR[In.C]));
      break;
    case Opcode::UnboxF:
      FR[In.A] = realScalar(requireValue(PR[In.B]));
      break;
    case Opcode::UnboxI:
      IR[In.A] = integerScalar(requireValue(PR[In.B]));
      break;
    case Opcode::UnboxReIm:
      exec::complexScalar(PR[In.C], FR[In.A], FR[In.B]);
      break;
    case Opcode::CheckDef:
      exec::checkDefined(PR[In.A], F.Names[In.Imm.I].c_str());
      break;

    case Opcode::NewMat:
      PR[In.A] =
          exec::zeros(IR[In.B], IR[In.C], static_cast<MClass>(In.Imm.I));
      break;
    case Opcode::FillF:
      exec::fill(PR[In.A], In.Imm.F);
      break;

    case Opcode::LoadEl:
      FR[In.A] = requireRealData(requireValue(PR[In.B]))
                     .re(static_cast<size_t>(IR[In.C]));
      break;
    case Opcode::LoadElChk:
      FR[In.A] = exec::loadChecked(PR[In.B], IR[In.C]);
      break;
    case Opcode::LoadEl2:
      FR[In.A] = requireRealData(requireValue(PR[In.B]))
                     .at(static_cast<size_t>(IR[In.C]),
                         static_cast<size_t>(IR[In.D]));
      break;
    case Opcode::LoadEl2Chk:
      FR[In.A] = exec::loadChecked2(PR[In.B], IR[In.C], IR[In.D]);
      break;

    case Opcode::StoreEl:
      exec::store(PR[In.A], static_cast<size_t>(IR[In.B]), FR[In.C],
                  static_cast<MClass>(In.Imm.I));
      break;
    case Opcode::StoreElChk:
      exec::storeGrow(PR[In.A], IR[In.B], FR[In.C],
                      static_cast<MClass>(In.Imm.I));
      break;
    case Opcode::StoreEl2:
      exec::store2(PR[In.A], static_cast<size_t>(IR[In.B]),
                   static_cast<size_t>(IR[In.C]), FR[In.D],
                   static_cast<MClass>(In.Imm.I));
      break;
    case Opcode::StoreEl2Chk:
      exec::storeGrow2(PR[In.A], IR[In.B], IR[In.C], FR[In.D],
                       static_cast<MClass>(In.Imm.I));
      break;

    case Opcode::LenRows:
      IR[In.A] = static_cast<int64_t>(requireValue(PR[In.B]).rows());
      break;
    case Opcode::LenCols:
      IR[In.A] = static_cast<int64_t>(requireValue(PR[In.B]).cols());
      break;
    case Opcode::LenNumel:
      IR[In.A] = static_cast<int64_t>(requireValue(PR[In.B]).numel());
      break;
    case Opcode::ColSlice: {
      const Value &V = requireValue(PR[In.B]);
      PR[In.A] = makeValue(rt::index2(
          V, Indexer::colon(), Indexer::single(static_cast<size_t>(IR[In.C]))));
      break;
    }

    case Opcode::MakeRange:
      PR[In.A] = makeValue(Value::range(FR[In.B], FR[In.C], FR[In.D]));
      break;
    case Opcode::MakeRangeG:
      PR[In.A] = makeValue(rt::colon(requireValue(PR[In.B]),
                                     requireValue(PR[In.C]),
                                     requireValue(PR[In.D])));
      break;
    case Opcode::RtBin:
      PR[In.A] = makeValue(rt::binary(static_cast<rt::BinOp>(In.Imm.I),
                                      requireValue(PR[In.B]),
                                      requireValue(PR[In.C])));
      break;
    case Opcode::RtUn:
      PR[In.A] = makeValue(rt::unary(static_cast<rt::UnOp>(In.Imm.I),
                                     requireValue(PR[In.B])));
      break;
    case Opcode::IsTrue:
      IR[In.A] = requireValue(PR[In.B]).isTrue();
      break;

    case Opcode::HorzCat:
    case Opcode::VertCat:
      PR[In.A] = exec::concat(In.Op == Opcode::HorzCat, In.C, PoolReg(In.B));
      break;

    case Opcode::LoadIdxG:
    case Opcode::StoreIdxG: {
      // Pool entry In.C + K names subscript K's register; negative is a
      // colon.
      auto Sub = [PR, Pool, Off = In.C](int K) -> const ValuePtr * {
        int32_t Entry = Pool[Off + K];
        return Entry < 0 ? nullptr : &PR[Entry];
      };
      if (In.Op == Opcode::LoadIdxG)
        PR[In.A] = exec::indexLoad(PR[In.B], In.D, Sub);
      else
        exec::indexAssign(PR[In.A], PR[In.B], In.D, Sub);
      break;
    }

    case Opcode::CallB: {
      int64_t NameId = In.Imm.I & ~kStatementCallFlag;
      exec::callBuiltin(Builtins[NameId], F.Names[NameId].c_str(), Ctx,
                        (In.Imm.I & kStatementCallFlag) != 0, In.D,
                        PoolReg(In.C), In.B, ToPoolReg(In.A));
      break;
    }
    case Opcode::CallU: {
      int64_t NameId = In.Imm.I & ~kStatementCallFlag;
      bool Statement = (In.Imm.I & kStatementCallFlag) != 0;
      std::vector<ValuePtr> Rs = Resolver.callFunction(
          F.Names[NameId], exec::callArgs(In.D, PoolReg(In.C)),
          Statement ? 0 : static_cast<size_t>(In.B), SourceLoc());
      exec::callResults(Rs, Statement, In.B, ToPoolReg(In.A));
      break;
    }

    case Opcode::Display:
      exec::display(Ctx, PR[In.A], F.Names[In.Imm.I]);
      break;

    case Opcode::Gemv:
      PR[In.A] = exec::gemv(PR[In.B], PR[In.C]);
      break;
    case Opcode::Axpy:
      PR[In.A] = exec::axpy(FR[In.B], PR[In.C], PR[In.D]);
      break;
    case Opcode::MatMulT:
      PR[In.A] = exec::matMulT(In.Imm.I, PR[In.B], PR[In.C]);
      break;
    case Opcode::DotT:
      FR[In.A] = exec::dotT(In.Imm.I, PR[In.B], PR[In.C]);
      break;

    case Opcode::EwFuse:
      PR[In.A] = makeValue(runEwFuse(F, In, PR));
      break;

    case Opcode::LoadParam:
      PR[In.A] = Param(In.Imm.I);
      break;
    case Opcode::StoreOut:
      Outs[In.Imm.I] = PR[In.A];
      break;
    case Opcode::ArgF:
      FR[In.A] = Direct ? Direct->Args[In.Imm.I].F
                        : realScalar(requireValue(Param(In.Imm.I)));
      break;
    case Opcode::ArgI:
      IR[In.A] = Direct ? Direct->Args[In.Imm.I].I
                        : integerScalar(requireValue(Param(In.Imm.I)));
      break;
    case Opcode::OutI:
      if (Direct) {
        Direct->Result = IR[In.A];
        Direct->HasResult = true;
      } else {
        Outs[In.Imm.I] = makeValue(Value::intScalar(double(IR[In.A])));
      }
      break;
    case Opcode::CallSelf: {
      // Re-enters this code on the next frame, as machine code calls its
      // typed body: the arguments stay in registers, an OutI result comes
      // back unboxed, and only the resolver's depth check remains. A
      // deopt unwinds to the run that entered through the resolver.
      exec::CallLevel Level(Resolver.callDepth());
      Level.enter(Resolver.maxCallDepth());
      const int32_t Regs[selfcall::kMaxArgs] = {In.B, In.C, In.D};
      DirectCall Callee;
      for (unsigned K = 0; K != selfcall::numArgs(In.Imm.I); ++K) {
        if (selfcall::argIsInt(In.Imm.I, K))
          Callee.Args[K].I = IR[Regs[K]];
        else
          Callee.Args[K].F = FR[Regs[K]];
      }
      ++DirectCalls;
      execute(F, NoArgs, 1, &Callee);
      IR[In.A] = Callee.Result;
      break;
    }

    case Opcode::FRand:
      FR[In.A] = Ctx.Rand.nextDouble();
      break;
    }
    ++PC;
  }
}
