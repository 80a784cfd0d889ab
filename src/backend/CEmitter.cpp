//===- backend/CEmitter.cpp - C source emission ----------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every emission decision here is constrained by two hard requirements of
// the native tier: the output must compile warning-clean under
// `-std=c11 -Wall -Werror` (so registers are initialized and
// void-discarded, labels carry null statements, literals never overflow),
// and it must reproduce the register VM bit for bit (so min/max use the
// comparison form rather than fmin/fmax, non-finite constants are spelled
// as IEEE bit patterns, and guarded intrinsics/negative-base powers
// deoptimize through the host exactly where the VM would).
//
//===----------------------------------------------------------------------===//

#include "backend/CEmitter.h"

#include "ir/Operands.h"
#include "runtime/Builtins.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <set>
#include <vector>

using namespace majic;

namespace {

std::string freg(int32_t R) { return format("f%d", R); }
std::string ireg(int32_t R) { return format("i%d", R); }
std::string preg(int32_t R) { return format("p%d", R); }

const char *condOp(CondCode CC) {
  switch (CC) {
  case CondCode::LT:
    return "<";
  case CondCode::LE:
    return "<=";
  case CondCode::GT:
    return ">";
  case CondCode::GE:
    return ">=";
  case CondCode::EQ:
    return "==";
  case CondCode::NE:
    return "!=";
  }
  return "?";
}

/// The mlf-style names Figure 3 uses for the generic operators.
const char *mlfBinaryName(rt::BinOp Op) {
  switch (Op) {
  case rt::BinOp::Add:
    return "mlfPlus";
  case rt::BinOp::Sub:
    return "mlfMinus";
  case rt::BinOp::MatMul:
    return "mlfTimes";
  case rt::BinOp::ElemMul:
    return "mlfDotTimes";
  case rt::BinOp::MatRDiv:
    return "mlfRdivide";
  case rt::BinOp::ElemRDiv:
    return "mlfDotRdivide";
  case rt::BinOp::MatLDiv:
    return "mlfLdivide";
  case rt::BinOp::ElemLDiv:
    return "mlfDotLdivide";
  case rt::BinOp::MatPow:
    return "mlfPower";
  case rt::BinOp::ElemPow:
    return "mlfDotPower";
  case rt::BinOp::Lt:
    return "mlfLt";
  case rt::BinOp::Le:
    return "mlfLe";
  case rt::BinOp::Gt:
    return "mlfGt";
  case rt::BinOp::Ge:
    return "mlfGe";
  case rt::BinOp::Eq:
    return "mlfEq";
  case rt::BinOp::Ne:
    return "mlfNe";
  case rt::BinOp::And:
    return "mlfAnd";
  case rt::BinOp::Or:
    return "mlfOr";
  }
  return "mlfBinary";
}

const char *intrName(ScalarIntrinsic I) {
  switch (I) {
  case ScalarIntrinsic::Abs:
    return "fabs";
  case ScalarIntrinsic::Sqrt:
    return "sqrt";
  case ScalarIntrinsic::Exp:
    return "exp";
  case ScalarIntrinsic::Log:
    return "log";
  case ScalarIntrinsic::Log2:
    return "log2";
  case ScalarIntrinsic::Log10:
    return "log10";
  case ScalarIntrinsic::Sin:
    return "sin";
  case ScalarIntrinsic::Cos:
    return "cos";
  case ScalarIntrinsic::Tan:
    return "tan";
  case ScalarIntrinsic::Asin:
    return "asin";
  case ScalarIntrinsic::Acos:
    return "acos";
  case ScalarIntrinsic::Atan:
    return "atan";
  case ScalarIntrinsic::Sinh:
    return "sinh";
  case ScalarIntrinsic::Cosh:
    return "cosh";
  case ScalarIntrinsic::Tanh:
    return "tanh";
  case ScalarIntrinsic::Floor:
    return "floor";
  case ScalarIntrinsic::Ceil:
    return "ceil";
  case ScalarIntrinsic::Round:
    return "round";
  case ScalarIntrinsic::Fix:
    return "trunc";
  case ScalarIntrinsic::Sign:
    return "mlf_sign";
  case ScalarIntrinsic::Atan2:
    return "atan2";
  case ScalarIntrinsic::Mod:
    return "mlf_mod";
  case ScalarIntrinsic::Rem:
    return "mlf_rem";
  case ScalarIntrinsic::Min2:
    // NOT fmin/fmax: their NaN-absorbing semantics differ from the
    // host's std::min/std::max comparison form.
    return "mlf_min2";
  case ScalarIntrinsic::Max2:
    return "mlf_max2";
  case ScalarIntrinsic::Hypot:
    return "hypot";
  case ScalarIntrinsic::None:
    break;
  }
  return "mlf_intr";
}

std::string shapeStr(const ShapeBound &S) {
  auto Dim = [](uint64_t D) {
    return D == ShapeBound::kUnknownDim
               ? std::string("*")
               : format("%llu", static_cast<unsigned long long>(D));
  };
  return Dim(S.Rows) + "x" + Dim(S.Cols);
}

/// A C double literal that reconstructs \p X exactly. %.17g loses
/// infinities ("inf" is not C) and NaNs, so those go through their bit
/// patterns instead.
std::string fLit(double X) {
  if (!std::isfinite(X)) {
    unsigned long long Bits;
    std::memcpy(&Bits, &X, sizeof Bits);
    return format("mlf_f64bits(0x%016llxull)", Bits);
  }
  return format("%.17g", X);
}

/// A C long long literal. INT64_MIN has no direct spelling (the '-' is
/// applied to an out-of-range positive constant).
std::string iLit(int64_t X) {
  if (X == INT64_MIN)
    return "(-9223372036854775807LL - 1)";
  return format("%lld", static_cast<long long>(X));
}

/// The typed convention (ArgF/ArgI/OutI, CallSelf): the body becomes a
/// static C function taking the parameters as double/long long and
/// returning the result unboxed, and a self-call is a plain C call of it.
/// The exported entry is the one place that converts between boxes and C
/// scalars: it unboxes the arguments, calls the body once and boxes the
/// result.
struct TypedBody {
  std::string Name;
  std::vector<bool> IntParam;
  bool BoxedResult = true; ///< StoreOut, not OutI: may be unassigned

  const char *resultType() const {
    return BoxedResult ? "mxValue *" : "long long";
  }
};

/// Applies when the function uses the typed convention. CodeGen then takes
/// every parameter through ArgF/ArgI, gives the function one output, and
/// makes each CallSelf pass the parameters in their registers' classes.
std::optional<TypedBody> typedBody(const IRFunction &F) {
  TypedBody T;
  T.IntParam.assign(F.NumParams, false);
  bool Typed = false;
  for (const Instr &In : F.Code) {
    switch (In.Op) {
    case Opcode::ArgI:
      T.IntParam.at(static_cast<size_t>(In.Imm.I)) = true;
      [[fallthrough]];
    case Opcode::ArgF:
    case Opcode::CallSelf:
      Typed = true;
      break;
    case Opcode::OutI:
      Typed = true;
      T.BoxedResult = false;
      break;
    default:
      break;
    }
  }
  if (!Typed)
    return std::nullopt;
  T.Name = cIdentifier(F.Name) + "_typed";
  return T;
}

} // namespace

std::string majic::emitCSource(const IRFunction &F, const TypeSignature &Sig) {
  std::string Out;
  Out += "/* Generated by the MaJIC speculative-mode source code generator.\n";
  Out += format(" * function: %s\n", F.Name.c_str());
  for (size_t P = 0; P != Sig.size(); ++P) {
    const Type &T = Sig[P];
    std::string Limits =
        T.range().isTop()
            ? "<-inf,inf>"
            : T.range().isBottom()
                  ? "<>"
                  : format("<%g,%g>", T.range().Lo, T.range().Hi);
    Out += format(" *   itype(arg%zu)=%s  minshape=%s maxshape=%s  "
                  "limits=%s\n",
                  P, intrinsicName(T.intrinsic()),
                  shapeStr(T.minShape()).c_str(),
                  shapeStr(T.maxShape()).c_str(), Limits.c_str());
  }
  Out += " * mxValue handles are reference counted by the runtime shim.\n";
  Out += " */\n";
  Out += "#include \"majic_mlf.h\"\n\n";

  // Fused elementwise programs become file-scope tables (emitting them
  // inline would put declarations after labels and re-materialize the
  // array on every execution of the loop's enclosing block).
  for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
    const Instr &In = F.Code[Pos];
    if (In.Op != Opcode::EwFuse || In.Imm.I <= 0)
      continue;
    Out += format("static const int mlf_prog_%zu[] = {", Pos);
    for (int64_t K = 0; K != In.Imm.I; ++K)
      Out += format("%s%d", K ? ", " : "", F.Pool[In.D + K]);
    Out += "};\n";
  }

  std::optional<TypedBody> Typed = typedBody(F);
  if (Typed) {
    Out += format("\nstatic %s %s(mlfCallState *cs", Typed->resultType(),
                  Typed->Name.c_str());
    for (size_t P = 0; P != F.NumParams; ++P)
      Out += format(", %s a%zu", Typed->IntParam[P] ? "long long" : "double",
                    P);
    Out += ") {\n";
    Out += format("  %s mlf_out = 0;\n", Typed->resultType());
  } else {
    Out += format("\nint %s_compiled(mxValue **args, int nargs, "
                  "mxValue **outs, int nouts) {\n",
                  cIdentifier(F.Name).c_str());
  }
  const std::string Return = Typed ? "return mlf_out;" : "return 0;";
  // The unassigned-output error of the direct caller's boxed result.
  const std::string Unassigned = cStringEscape(format(
      "output argument '%s' of '%s' not assigned",
      F.OutNames.empty() ? "1" : F.OutNames[0].c_str(), F.Name.c_str()));

  // Declarations. Registers are assigned along every path that reads
  // them, but the C compiler cannot always prove that across the goto
  // graph, so initialize everything; the (void) line keeps registers the
  // allocator made write-only (or never used) from tripping
  // -Wunused-but-set-variable under -Werror.
  std::string Discards;
  if (F.NumF) {
    Out += "  double";
    for (unsigned R = 0; R != F.NumF; ++R) {
      Out += format("%s %s = 0", R ? "," : "", freg(R).c_str());
      Discards += format("(void)%s; ", freg(R).c_str());
    }
    Out += ";\n";
  }
  if (F.NumI) {
    Out += "  long long";
    for (unsigned R = 0; R != F.NumI; ++R) {
      Out += format("%s %s = 0", R ? "," : "", ireg(R).c_str());
      Discards += format("(void)%s; ", ireg(R).c_str());
    }
    Out += ";\n";
  }
  if (F.NumP) {
    Out += "  mxValue";
    for (unsigned R = 0; R != F.NumP; ++R) {
      Out += format("%s *%s = 0", R ? "," : "", preg(R).c_str());
      Discards += format("(void)%s; ", preg(R).c_str());
    }
    Out += ";\n";
  }
  // Spill slots from allocated IR map to plain local arrays (a pointer
  // spill copies the box pointer: slot and register are the same virtual
  // register, so the aliasing is exactly the VM's).
  if (F.NumFSpill) {
    Out += format("  double fsp[%u] = {0};\n", F.NumFSpill);
    Discards += "(void)fsp; ";
  }
  if (F.NumISpill) {
    Out += format("  long long isp[%u] = {0};\n", F.NumISpill);
    Discards += "(void)isp; ";
  }
  if (F.NumPSpill) {
    Out += format("  mxValue *psp[%u] = {0};\n", F.NumPSpill);
    Discards += "(void)psp; ";
  }

  // Back-edge counter for cooperative interruption: the VM polls its
  // execution budget every 256 instructions; generated code polls every
  // 256 backward branches, so unbounded loops stay interruptible.
  bool HasBackEdge = false;
  for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
    const Instr &In = F.Code[Pos];
    if (isBranch(In.Op) && In.A <= static_cast<int32_t>(Pos))
      HasBackEdge = true;
  }
  if (HasBackEdge)
    Out += "  long long mlf_ops = 0;\n";
  if (!Discards.empty()) {
    Discards.pop_back(); // trailing space
    Out += "  " + Discards + "\n";
  }
  Out += "\n";

  // Branch targets need labels.
  std::set<int32_t> Labels;
  for (const Instr &In : F.Code)
    if (isBranch(In.Op))
      Labels.insert(In.A);

  auto PoolArgs = [&](int32_t Off, int32_t N) {
    std::string S;
    for (int32_t K = 0; K != N; ++K) {
      if (K)
        S += ", ";
      S += F.Pool[Off + K] < 0 ? "MLF_COLON" : preg(F.Pool[Off + K]);
    }
    return S;
  };
  // Call destinations are written through their address (the callee
  // boxes fresh results).
  auto PoolDsts = [&](int32_t Off, int32_t N) {
    std::string S;
    for (int32_t K = 0; K != N; ++K) {
      if (K)
        S += ", ";
      S += "&" + preg(F.Pool[Off + K]);
    }
    return S;
  };
  // Polling guard spliced ahead of a backward goto.
  auto BackPoll = [&](int32_t Target, size_t Pos) {
    return Target <= static_cast<int32_t>(Pos)
               ? std::string("if ((++mlf_ops & 0xff) == 0) { mlfPoll(256); } ")
               : std::string();
  };

  for (size_t Pos = 0; Pos != F.Code.size(); ++Pos) {
    const Instr &In = F.Code[Pos];
    if (Labels.count(static_cast<int32_t>(Pos)))
      Out += format("L%zu:;\n", Pos); // null statement: labels may precede '}'
    std::string Line;
    switch (In.Op) {
    case Opcode::Nop:
      continue;
    case Opcode::FConst:
      Line = freg(In.A) + " = " + fLit(In.Imm.F) + ";";
      break;
    case Opcode::IConst:
      Line = ireg(In.A) + " = " + iLit(In.Imm.I) + ";";
      break;
    case Opcode::SConst:
      Line = format("%s = mlfString(\"%s\");", preg(In.A).c_str(),
                    cStringEscape(F.Strings[In.Imm.I]).c_str());
      break;
    case Opcode::MovF:
      Line = freg(In.A) + " = " + freg(In.B) + ";";
      break;
    case Opcode::MovI:
      Line = ireg(In.A) + " = " + ireg(In.B) + ";";
      break;
    case Opcode::MovP:
      Line = preg(In.A) + " = mxRetain(" + preg(In.B) + ");";
      break;
    case Opcode::IToF:
      Line = freg(In.A) + " = (double)" + ireg(In.B) + ";";
      break;
    case Opcode::FToI:
      Line = ireg(In.A) + " = (long long)" + freg(In.B) + ";";
      break;
    case Opcode::FToIdx:
      Line = ireg(In.A) + " = mlfCheckSubscript(" + freg(In.B) + ");";
      break;
    case Opcode::FAdd:
      Line = freg(In.A) + " = " + freg(In.B) + " + " + freg(In.C) + ";";
      break;
    case Opcode::FSub:
      Line = freg(In.A) + " = " + freg(In.B) + " - " + freg(In.C) + ";";
      break;
    case Opcode::FMul:
      Line = freg(In.A) + " = " + freg(In.B) + " * " + freg(In.C) + ";";
      break;
    case Opcode::FDiv:
      Line = freg(In.A) + " = " + freg(In.B) + " / " + freg(In.C) + ";";
      break;
    case Opcode::FNeg:
      Line = freg(In.A) + " = -" + freg(In.B) + ";";
      break;
    case Opcode::FPow:
      Line = freg(In.A) + " = pow(" + freg(In.B) + ", " + freg(In.C) + ");";
      break;
    case Opcode::FCmp:
      Line = ireg(In.A) + " = " + freg(In.B) + " " +
             condOp(static_cast<CondCode>(In.Imm.I)) + " " + freg(In.C) + ";";
      break;
    case Opcode::FIntr1: {
      auto I = static_cast<ScalarIntrinsic>(In.Imm.I);
      // Optimistically typed intrinsics carry their domain guard: a
      // negative sqrt/log (or out-of-range asin/acos) operand must
      // deoptimize to the general tiers, exactly like the VM.
      std::string Arg = scalarIntrinsicNeedsGuard(I)
                            ? format("mlfEwGuard(%d, %s)",
                                     static_cast<int>(I), freg(In.B).c_str())
                            : freg(In.B);
      Line = freg(In.A) + " = " + intrName(I) + "(" + Arg + ");";
      break;
    }
    case Opcode::FIntr2:
      Line = freg(In.A) + " = " +
             intrName(static_cast<ScalarIntrinsic>(In.Imm.I)) + "(" +
             freg(In.B) + ", " + freg(In.C) + ");";
      break;
    case Opcode::IAdd:
      Line = ireg(In.A) + " = " + ireg(In.B) + " + " + ireg(In.C) + ";";
      break;
    case Opcode::ISub:
      Line = ireg(In.A) + " = " + ireg(In.B) + " - " + ireg(In.C) + ";";
      break;
    case Opcode::IMul:
      Line = ireg(In.A) + " = " + ireg(In.B) + " * " + ireg(In.C) + ";";
      break;
    case Opcode::INeg:
      Line = ireg(In.A) + " = -" + ireg(In.B) + ";";
      break;
    case Opcode::ICmp:
      Line = ireg(In.A) + " = " + ireg(In.B) + " " +
             condOp(static_cast<CondCode>(In.Imm.I)) + " " + ireg(In.C) + ";";
      break;
    case Opcode::IAnd:
      Line = ireg(In.A) + " = (" + ireg(In.B) + " != 0) & (" + ireg(In.C) +
             " != 0);";
      break;
    case Opcode::IOr:
      Line = ireg(In.A) + " = (" + ireg(In.B) + " != 0) | (" + ireg(In.C) +
             " != 0);";
      break;
    case Opcode::INot:
      Line = ireg(In.A) + " = " + ireg(In.B) + " == 0;";
      break;
    case Opcode::Br:
      Line = BackPoll(In.A, Pos) + format("goto L%d;", In.A);
      break;
    case Opcode::Brz: {
      std::string Poll = BackPoll(In.A, Pos);
      Line = Poll.empty()
                 ? format("if (%s == 0) goto L%d;", ireg(In.B).c_str(), In.A)
                 : format("if (%s == 0) { %sgoto L%d; }",
                          ireg(In.B).c_str(), Poll.c_str(), In.A);
      break;
    }
    case Opcode::Brnz: {
      std::string Poll = BackPoll(In.A, Pos);
      Line = Poll.empty()
                 ? format("if (%s != 0) goto L%d;", ireg(In.B).c_str(), In.A)
                 : format("if (%s != 0) { %sgoto L%d; }",
                          ireg(In.B).c_str(), Poll.c_str(), In.A);
      break;
    }
    case Opcode::Ret:
      Line = Return;
      break;
    case Opcode::BoxF:
      Line = preg(In.A) + " = mlfScalar(" + freg(In.B) + ");";
      break;
    case Opcode::BoxI:
      Line = preg(In.A) + " = mlfIntScalar(" + ireg(In.B) + ");";
      break;
    case Opcode::BoxB:
      Line = preg(In.A) + " = mlfLogicalScalar(" + ireg(In.B) + ");";
      break;
    case Opcode::BoxC:
      Line = preg(In.A) + " = mlfComplexScalar(" + freg(In.B) + ", " +
             freg(In.C) + ");";
      break;
    case Opcode::UnboxF:
      Line = freg(In.A) + " = mlfGetScalar(" + preg(In.B) + ");";
      break;
    case Opcode::UnboxI:
      Line = ireg(In.A) + " = mlfGetIntScalar(" + preg(In.B) + ");";
      break;
    case Opcode::UnboxReIm:
      Line = "mlfGetComplexScalar(" + preg(In.C) + ", &" + freg(In.A) +
             ", &" + freg(In.B) + ");";
      break;
    case Opcode::CheckDef:
      Line = format("mlfCheckDefined(%s, \"%s\");", preg(In.A).c_str(),
                    cStringEscape(F.Names[In.Imm.I]).c_str());
      break;
    case Opcode::NewMat:
      Line = preg(In.A) + " = mlfZeros(" + ireg(In.B) + ", " + ireg(In.C) +
             format(", %d);", static_cast<int>(In.Imm.I));
      break;
    case Opcode::FillF:
      Line = format("mlfFill(%s, %s);", preg(In.A).c_str(),
                    fLit(In.Imm.F).c_str());
      break;
    case Opcode::LoadEl:
      Line = freg(In.A) + " = mxRe(" + preg(In.B) + ")[" + ireg(In.C) + "];";
      break;
    case Opcode::LoadElChk:
      Line = freg(In.A) + " = mlfLoadChecked(" + preg(In.B) + ", " +
             ireg(In.C) + ");";
      break;
    case Opcode::LoadEl2:
      Line = freg(In.A) + " = mxRe(" + preg(In.B) + ")[" + ireg(In.D) +
             " * mxRows(" + preg(In.B) + ") + " + ireg(In.C) + "];";
      break;
    case Opcode::LoadEl2Chk:
      Line = freg(In.A) + " = mlfLoad2Checked(" + preg(In.B) + ", " +
             ireg(In.C) + ", " + ireg(In.D) + ");";
      break;
    case Opcode::StoreEl:
      // The class immediate rides along so the store can promote the
      // array (int -> real) exactly like the VM's promoteClass; the
      // macro's fast path checks it against the write cache.
      Line = "mlfStore(&" + preg(In.A) + ", " + ireg(In.B) + ", " +
             freg(In.C) + format(", %d);", static_cast<int>(In.Imm.I));
      break;
    case Opcode::StoreElChk:
      Line = "mlfStoreGrow(&" + preg(In.A) + ", " + ireg(In.B) + ", " +
             freg(In.C) + format(", %d);", static_cast<int>(In.Imm.I));
      break;
    case Opcode::StoreEl2:
      Line = "mlfStore2(&" + preg(In.A) + ", " + ireg(In.B) + ", " +
             ireg(In.C) + ", " + freg(In.D) +
             format(", %d);", static_cast<int>(In.Imm.I));
      break;
    case Opcode::StoreEl2Chk:
      Line = "mlfStore2Grow(&" + preg(In.A) + ", " + ireg(In.B) + ", " +
             ireg(In.C) + ", " + freg(In.D) +
             format(", %d);", static_cast<int>(In.Imm.I));
      break;
    case Opcode::LenRows:
      Line = ireg(In.A) + " = mxRows(" + preg(In.B) + ");";
      break;
    case Opcode::LenCols:
      Line = ireg(In.A) + " = mxCols(" + preg(In.B) + ");";
      break;
    case Opcode::LenNumel:
      Line = ireg(In.A) + " = mxNumel(" + preg(In.B) + ");";
      break;
    case Opcode::ColSlice:
      Line = preg(In.A) + " = mlfColumn(" + preg(In.B) + ", " + ireg(In.C) +
             ");";
      break;
    case Opcode::MakeRange:
      Line = preg(In.A) + " = mlfColon(" + freg(In.B) + ", " + freg(In.C) +
             ", " + freg(In.D) + ");";
      break;
    case Opcode::MakeRangeG:
      Line = preg(In.A) + " = mlfColonV(" + preg(In.B) + ", " + preg(In.C) +
             ", " + preg(In.D) + ");";
      break;
    case Opcode::RtBin:
      Line = preg(In.A) + " = " +
             mlfBinaryName(static_cast<rt::BinOp>(In.Imm.I)) + "(" +
             preg(In.B) + ", " + preg(In.C) + ");";
      break;
    case Opcode::RtUn:
      Line = preg(In.A) + " = mlfUnary(" +
             format("%d", static_cast<int>(In.Imm.I)) + ", " + preg(In.B) +
             ");";
      break;
    case Opcode::IsTrue:
      Line = ireg(In.A) + " = mlfIsTrue(" + preg(In.B) + ");";
      break;
    case Opcode::HorzCat:
      Line = preg(In.A) + " = mlfHorzcat(" + format("%d", In.C) + ", " +
             PoolArgs(In.B, In.C) + ");";
      break;
    case Opcode::VertCat:
      Line = preg(In.A) + " = mlfVertcat(" + format("%d", In.C) + ", " +
             PoolArgs(In.B, In.C) + ");";
      break;
    case Opcode::LoadIdxG:
      Line = preg(In.A) + " = mlfIndex(" + preg(In.B) + ", " +
             format("%d", In.D) + ", " + PoolArgs(In.C, In.D) + ");";
      break;
    case Opcode::StoreIdxG:
      Line = "mlfIndexAssign(&" + preg(In.A) + ", " + preg(In.B) + ", " +
             format("%d", In.D) + ", " + PoolArgs(In.C, In.D) + ");";
      break;
    case Opcode::CallB:
      Line = format("mlfCallBuiltin(\"%s\", %d, %d",
                    cStringEscape(F.Names[In.Imm.I & ~kStatementCallFlag])
                        .c_str(),
                    (In.Imm.I & kStatementCallFlag) ? 1 : 0, In.B);
      if (In.B)
        Line += ", " + PoolDsts(In.A, In.B);
      Line += format(", %d", In.D);
      if (In.D)
        Line += ", " + PoolArgs(In.C, In.D);
      Line += ");";
      break;
    case Opcode::CallU:
      Line = format("mlfCallFunction(\"%s\", %d, %d",
                    cStringEscape(F.Names[In.Imm.I & ~kStatementCallFlag])
                        .c_str(),
                    (In.Imm.I & kStatementCallFlag) ? 1 : 0, In.B);
      if (In.B)
        Line += ", " + PoolDsts(In.A, In.B);
      Line += format(", %d", In.D);
      if (In.D)
        Line += ", " + PoolArgs(In.C, In.D);
      Line += ");";
      break;
    case Opcode::Display:
      Line = format("mlfDisplay(%s, \"%s\");", preg(In.A).c_str(),
                    cStringEscape(F.Names[In.Imm.I]).c_str());
      break;
    case Opcode::Gemv:
      Line = preg(In.A) + " = mlfDgemv(" + preg(In.B) + ", " + preg(In.C) +
             ");";
      break;
    case Opcode::Axpy:
      Line = preg(In.A) + " = mlfDaxpy(" + freg(In.B) + ", " + preg(In.C) +
             ", " + preg(In.D) + ");";
      break;
    case Opcode::MatMulT:
      Line = preg(In.A) + " = mlfMatMulT(" +
             format("%d", static_cast<int>(In.Imm.I)) + ", " + preg(In.B) +
             ", " + preg(In.C) + ");";
      break;
    case Opcode::DotT:
      Line = freg(In.A) + " = mlfDotT(" +
             format("%d", static_cast<int>(In.Imm.I)) + ", " + preg(In.B) +
             ", " + preg(In.C) + ");";
      break;
    case Opcode::EwFuse: {
      // One fused loop over the whole elementwise tree: mlfEwAlloc
      // simulates the program (conformance checks, complex deopt) and
      // allocates the result; mlfEwLoad reads element k (broadcasting
      // scalars); each program entry becomes its own named temporary,
      // one statement per op, mirroring the VM's stack evaluation. The
      // host compiles this with -ffp-contract=off, so separate
      // multiplies and adds are never contracted into FMAs (results
      // must stay bit-identical to the interpreter).
      Line = preg(In.A) + " = mlfEwAlloc(" + format("%d", In.C);
      if (In.C)
        Line += ", " + PoolArgs(In.B, In.C);
      Line += format(", %d, %s);\n", static_cast<int>(In.Imm.I),
                     In.Imm.I > 0 ? format("mlf_prog_%zu", Pos).c_str()
                                  : "(const int *)0");
      Line += format("  { /* fused elementwise: %lld entries, one pass */\n",
                     static_cast<long long>(In.Imm.I));
      Line += "    long long n = mxNumel(" + preg(In.A) + ");\n";
      Line += "    double *d = mxRe(" + preg(In.A) + ");\n";
      Line += "    for (long long k = 0; k < n; ++k) {\n";
      std::vector<std::string> Stk;
      int Tmp = 0;
      for (int64_t K = 0; K != In.Imm.I; ++K) {
        int32_t Entry = F.Pool[In.D + K];
        std::string T = format("t%d", Tmp++);
        switch (ew::opOf(Entry)) {
        case ew::EwOp::Push:
          Line += "      double " + T + " = mlfEwLoad(" +
                  preg(F.Pool[In.B + ew::argOf(Entry)]) + ", k);\n";
          Stk.push_back(T);
          break;
        case ew::EwOp::Bin: {
          std::string Y = Stk.back();
          Stk.pop_back();
          std::string X = Stk.back();
          Stk.pop_back();
          auto Op = static_cast<rt::BinOp>(ew::argOf(Entry));
          std::string E;
          switch (Op) {
          case rt::BinOp::Add:
            E = X + " + " + Y;
            break;
          case rt::BinOp::Sub:
            E = X + " - " + Y;
            break;
          case rt::BinOp::MatMul:
          case rt::BinOp::ElemMul:
            E = X + " * " + Y;
            break;
          case rt::BinOp::MatRDiv:
          case rt::BinOp::ElemRDiv:
            E = X + " / " + Y;
            break;
          case rt::BinOp::ElemPow:
            // mlf_powg deoptimizes negative-base/fractional-exponent
            // (complex result) cases instead of returning pow's NaN.
            E = "mlf_powg(" + X + ", " + Y + ")";
            break;
          default:
            E = "0 /* invalid fused op */";
            break;
          }
          Line += "      double " + T + " = " + E + ";\n";
          Stk.push_back(T);
          break;
        }
        case ew::EwOp::Neg: {
          std::string X = Stk.back();
          Stk.pop_back();
          Line += "      double " + T + " = -" + X + ";\n";
          Stk.push_back(T);
          break;
        }
        case ew::EwOp::Intr: {
          std::string X = Stk.back();
          Stk.pop_back();
          auto I = static_cast<ScalarIntrinsic>(ew::argOf(Entry));
          std::string Arg = scalarIntrinsicNeedsGuard(I)
                                ? format("mlfEwGuard(%d, %s)",
                                         static_cast<int>(I), X.c_str())
                                : X;
          Line += "      double " + T + " = " + std::string(intrName(I)) +
                  "(" + Arg + ");\n";
          Stk.push_back(T);
          break;
        }
        }
      }
      Line += "      d[k] = " + (Stk.empty() ? std::string("0") : Stk.back()) +
              ";\n";
      Line += "    }\n";
      Line += "  }";
      break;
    }
    case Opcode::LoadParam:
      Line = preg(In.A) + format(" = (%lld < nargs) ? args[%lld] : 0;",
                                 static_cast<long long>(In.Imm.I),
                                 static_cast<long long>(In.Imm.I));
      break;
    case Opcode::StoreOut:
      Line = Typed ? "mlf_out = " + preg(In.A) + ";"
                   : format("if (%lld < nouts) outs[%lld] = mxRetain(%s);",
                            static_cast<long long>(In.Imm.I),
                            static_cast<long long>(In.Imm.I),
                            preg(In.A).c_str());
      break;
    case Opcode::ArgF:
    case Opcode::ArgI:
      Line = (In.Op == Opcode::ArgF ? freg(In.A) : ireg(In.A)) +
             format(" = a%lld;", static_cast<long long>(In.Imm.I));
      break;
    case Opcode::OutI:
      Line = "mlf_out = " + ireg(In.A) + ";";
      break;
    case Opcode::CallSelf: {
      // The callee's boxes are freed once the result is read.
      int64_t Imm = In.Imm.I;
      const int32_t Regs[selfcall::kMaxArgs] = {In.B, In.C, In.D};
      std::string Dst = ireg(In.A);
      std::string Args;
      for (unsigned K = 0; K != selfcall::numArgs(Imm); ++K)
        Args += ", " + (selfcall::argIsInt(Imm, K) ? ireg(Regs[K])
                                                    : freg(Regs[K]));
      std::string Call = Typed->Name + "(cs" + Args + ")";
      if (Typed->BoxedResult)
        Line = format("{ mxValue *r; long long mlf_mark = mlfBoxMark(cs); "
                      "mlfDirectEnter(cs); r = %s; if (!r) mlfRaise(\"%s\"); "
                      "%s = mlfGetIntScalar(r); "
                      "mlfDirectLeave(cs, mlf_mark); }",
                      Call.c_str(), Unassigned.c_str(), Dst.c_str());
      else
        Line = "{ long long mlf_mark = mlfBoxMark(cs); mlfDirectEnter(cs); " +
               Dst + " = " + Call + "; mlfDirectLeave(cs, mlf_mark); }";
      break;
    }
    case Opcode::FSpLd:
      Line = freg(In.A) + format(" = fsp[%lld];",
                                 static_cast<long long>(In.Imm.I));
      break;
    case Opcode::FSpSt:
      Line = format("fsp[%lld] = ", static_cast<long long>(In.Imm.I)) +
             freg(In.A) + ";";
      break;
    case Opcode::ISpLd:
      Line = ireg(In.A) + format(" = isp[%lld];",
                                 static_cast<long long>(In.Imm.I));
      break;
    case Opcode::ISpSt:
      Line = format("isp[%lld] = ", static_cast<long long>(In.Imm.I)) +
             ireg(In.A) + ";";
      break;
    case Opcode::PSpLd:
      Line = preg(In.A) + format(" = psp[%lld];",
                                 static_cast<long long>(In.Imm.I));
      break;
    case Opcode::PSpSt:
      Line = format("psp[%lld] = ", static_cast<long long>(In.Imm.I)) +
             preg(In.A) + ";";
      break;
    case Opcode::FRand:
      Line = freg(In.A) + " = mlfRand();";
      break;
    }
    Out += "  " + Line + "\n";
  }
  if (Labels.count(static_cast<int32_t>(F.Code.size())))
    Out += format("L%zu:;\n  %s\n", F.Code.size(), Return.c_str());
  else if (F.Code.empty() || F.Code.back().Op != Opcode::Ret)
    Out += "  " + Return + "\n"; // -Wreturn-type: no path may fall off the end
  Out += "}\n";
  if (!Typed)
    return Out;

  // The exported entry: unbox the arguments, run the body at the depth the
  // host call already counted, box the result.
  Out += format("\nint %s_compiled(mxValue **args, int nargs, "
                "mxValue **outs, int nouts) {\n",
                cIdentifier(F.Name).c_str());
  Out += "  mlfCallState *cs = mlfGetCallState();\n";
  std::string Args;
  for (size_t P = 0; P != F.NumParams; ++P) {
    bool IsInt = Typed->IntParam[P];
    Out += format("  %s a%zu = %s((%zu < nargs) ? args[%zu] : 0);\n",
                  IsInt ? "long long" : "double", P,
                  IsInt ? "mlfGetIntScalar" : "mlfGetScalar", P, P);
    Args += format(", a%zu", P);
  }
  Out += format("  %s r = %s(cs%s);\n", Typed->resultType(),
                Typed->Name.c_str(), Args.c_str());
  Out += format("  if (0 < nouts) outs[0] = %s(r);\n",
                Typed->BoxedResult ? "mxRetain" : "mlfIntScalar");
  Out += "  return 0;\n}\n";
  return Out;
}
