//===- ir/Instr.cpp - The vcode-like low-level IR ------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Instr.h"

#include "runtime/Builtins.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace majic;

const char *majic::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Nop:
    return "nop";
  case Opcode::FConst:
    return "fconst";
  case Opcode::IConst:
    return "iconst";
  case Opcode::SConst:
    return "sconst";
  case Opcode::MovF:
    return "movf";
  case Opcode::MovI:
    return "movi";
  case Opcode::MovP:
    return "movp";
  case Opcode::IToF:
    return "itof";
  case Opcode::FToI:
    return "ftoi";
  case Opcode::FToIdx:
    return "ftoidx";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::FNeg:
    return "fneg";
  case Opcode::FPow:
    return "fpow";
  case Opcode::FCmp:
    return "fcmp";
  case Opcode::FIntr1:
    return "fintr1";
  case Opcode::FIntr2:
    return "fintr2";
  case Opcode::IAdd:
    return "iadd";
  case Opcode::ISub:
    return "isub";
  case Opcode::IMul:
    return "imul";
  case Opcode::INeg:
    return "ineg";
  case Opcode::ICmp:
    return "icmp";
  case Opcode::IAnd:
    return "iand";
  case Opcode::IOr:
    return "ior";
  case Opcode::INot:
    return "inot";
  case Opcode::Br:
    return "br";
  case Opcode::Brz:
    return "brz";
  case Opcode::Brnz:
    return "brnz";
  case Opcode::Ret:
    return "ret";
  case Opcode::BoxF:
    return "boxf";
  case Opcode::BoxI:
    return "boxi";
  case Opcode::BoxB:
    return "boxb";
  case Opcode::BoxC:
    return "boxc";
  case Opcode::UnboxF:
    return "unboxf";
  case Opcode::UnboxI:
    return "unboxi";
  case Opcode::UnboxReIm:
    return "unboxreim";
  case Opcode::CheckDef:
    return "checkdef";
  case Opcode::NewMat:
    return "newmat";
  case Opcode::FillF:
    return "fillf";
  case Opcode::LoadEl:
    return "loadel";
  case Opcode::LoadElChk:
    return "loadel.chk";
  case Opcode::LoadEl2:
    return "loadel2";
  case Opcode::LoadEl2Chk:
    return "loadel2.chk";
  case Opcode::StoreEl:
    return "storeel";
  case Opcode::StoreElChk:
    return "storeel.chk";
  case Opcode::StoreEl2:
    return "storeel2";
  case Opcode::StoreEl2Chk:
    return "storeel2.chk";
  case Opcode::LenRows:
    return "lenrows";
  case Opcode::LenCols:
    return "lencols";
  case Opcode::LenNumel:
    return "lennumel";
  case Opcode::ColSlice:
    return "colslice";
  case Opcode::MakeRange:
    return "makerange";
  case Opcode::MakeRangeG:
    return "makerange.g";
  case Opcode::RtBin:
    return "rtbin";
  case Opcode::RtUn:
    return "rtun";
  case Opcode::IsTrue:
    return "istrue";
  case Opcode::HorzCat:
    return "horzcat";
  case Opcode::VertCat:
    return "vertcat";
  case Opcode::LoadIdxG:
    return "loadidx.g";
  case Opcode::StoreIdxG:
    return "storeidx.g";
  case Opcode::CallB:
    return "callb";
  case Opcode::CallU:
    return "callu";
  case Opcode::Display:
    return "display";
  case Opcode::Gemv:
    return "gemv";
  case Opcode::Axpy:
    return "axpy";
  case Opcode::EwFuse:
    return "ewfuse";
  case Opcode::LoadParam:
    return "loadparam";
  case Opcode::StoreOut:
    return "storeout";
  case Opcode::FSpLd:
    return "fsp.ld";
  case Opcode::FSpSt:
    return "fsp.st";
  case Opcode::ISpLd:
    return "isp.ld";
  case Opcode::ISpSt:
    return "isp.st";
  case Opcode::PSpLd:
    return "psp.ld";
  case Opcode::PSpSt:
    return "psp.st";
  case Opcode::ArgF:
    return "argf";
  case Opcode::ArgI:
    return "argi";
  case Opcode::OutI:
    return "outi";
  case Opcode::CallSelf:
    return "callself";
  }
  majic_unreachable("invalid opcode");
}

int32_t IRFunction::internName(const std::string &N) {
  auto It = std::find(Names.begin(), Names.end(), N);
  if (It != Names.end())
    return static_cast<int32_t>(It - Names.begin());
  Names.push_back(N);
  return static_cast<int32_t>(Names.size() - 1);
}

int32_t IRFunction::internString(const std::string &S) {
  Strings.push_back(S);
  return static_cast<int32_t>(Strings.size() - 1);
}

void IRFunction::resolveBuiltins() {
  Builtins.resize(Names.size());
  for (size_t N = 0; N != Names.size(); ++N)
    Builtins[N] = BuiltinTable::instance().lookup(Names[N]);
}

std::string IRFunction::print() const {
  std::string Out = format("function %s (params=%zu outs=%zu F=%u I=%u P=%u%s)\n",
                           Name.c_str(), NumParams, NumOuts, NumF, NumI, NumP,
                           Allocated ? " allocated" : "");
  for (size_t Idx = 0; Idx != Code.size(); ++Idx) {
    const Instr &In = Code[Idx];
    Out += format("%4zu: %-12s", Idx, opcodeName(In.Op));
    if (In.A != -1)
      Out += format(" A=%d", In.A);
    if (In.B != -1)
      Out += format(" B=%d", In.B);
    if (In.C != -1)
      Out += format(" C=%d", In.C);
    if (In.D != -1)
      Out += format(" D=%d", In.D);
    switch (In.Op) {
    case Opcode::FConst:
    case Opcode::FillF:
      Out += format(" imm=%g", In.Imm.F);
      break;
    case Opcode::Nop:
      break;
    default:
      if (In.Imm.I != 0)
        Out += format(" imm=%lld", static_cast<long long>(In.Imm.I));
      break;
    }
    Out += "\n";
  }
  return Out;
}
