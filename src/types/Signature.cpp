//===- types/Signature.cpp - Type signatures ----------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "types/Signature.h"

#include "support/StringUtils.h"

#include <cmath>

using namespace majic;

TypeSignature TypeSignature::ofValues(const std::vector<ValuePtr> &Args) {
  std::vector<Type> Types;
  Types.reserve(Args.size());
  for (const ValuePtr &V : Args)
    Types.push_back(Type::ofValue(*V));
  return TypeSignature(std::move(Types));
}

TypeSignature TypeSignature::generic(size_t N) {
  return TypeSignature(std::vector<Type>(N, Type::top()));
}

bool TypeSignature::safeFor(const TypeSignature &CodeSig) const {
  if (Types.size() != CodeSig.Types.size())
    return false;
  for (size_t I = 0; I != Types.size(); ++I)
    if (!Types[I].le(CodeSig.Types[I]))
      return false;
  return true;
}

/// Per-component looseness of \p CodeT relative to the (tighter) actual
/// \p ActualT: 0 when identical, growing as the compiled code assumed less.
static double componentDistance(const Type &ActualT, const Type &CodeT) {
  double D = 0;
  // Intrinsic: lattice-rank slack.
  D += std::abs(static_cast<int>(CodeT.intrinsic()) -
                static_cast<int>(ActualT.intrinsic()));
  // Shape: one unit per dimension bound the code left open.
  auto DimSlack = [](uint64_t Actual, uint64_t Code) -> double {
    if (Code == Actual)
      return 0;
    if (Code == ShapeBound::kUnknownDim)
      return 1;
    return 0.5; // known but looser bound
  };
  D += DimSlack(ActualT.maxShape().Rows, CodeT.maxShape().Rows);
  D += DimSlack(ActualT.maxShape().Cols, CodeT.maxShape().Cols);
  D += DimSlack(ActualT.minShape().Rows, CodeT.minShape().Rows);
  D += DimSlack(ActualT.minShape().Cols, CodeT.minShape().Cols);
  // Range: constants beat intervals beat top.
  if (!(CodeT.range() == ActualT.range()))
    D += CodeT.range().isTop() ? 1 : 0.5;
  return D;
}

double TypeSignature::distance(const TypeSignature &CodeSig) const {
  assert(Types.size() == CodeSig.Types.size() && "arity mismatch");
  double D = 0;
  for (size_t I = 0; I != Types.size(); ++I)
    D += componentDistance(Types[I], CodeSig.Types[I]);
  return D;
}

std::string TypeSignature::str() const {
  std::string Out = "(";
  for (size_t I = 0; I != Types.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Types[I].str();
  }
  return Out + ")";
}

bool TypeSignature::mayRenderSame(const TypeSignature &O) const {
  if (Types.size() != O.Types.size())
    return false;
  for (size_t I = 0; I != Types.size(); ++I)
    if (!Types[I].mayRenderSame(O.Types[I]))
      return false;
  return true;
}

TypeSignature TypeSignature::generalized() const {
  std::vector<Type> Out;
  Out.reserve(Types.size());
  for (const Type &T : Types) {
    if (T.isScalar()) {
      Out.push_back(Type::scalar(T.intrinsic()));
      continue;
    }
    Out.push_back(Type::matrix(T.intrinsic()));
  }
  return TypeSignature(std::move(Out));
}
