//===- ir/Instr.cpp - The vcode-like low-level IR ------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Instr.h"

#include "ir/Operands.h"
#include "runtime/Builtins.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace majic;

const char *majic::opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

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
    if (opcodeInfo(In.Op).Imm == ImmKind::F64)
      Out += format(" imm=%g", In.Imm.F);
    else if (In.Imm.I != 0 && In.Op != Opcode::Nop)
      Out += format(" imm=%lld", static_cast<long long>(In.Imm.I));
    Out += "\n";
  }
  return Out;
}
