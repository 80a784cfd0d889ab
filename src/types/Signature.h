//===- types/Signature.h - Type signatures ---------------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Type signatures (Section 2.2.1): the types assigned to a compiled code
/// version's formal parameters. An invocation with actual types Q is safe
/// against compiled code with signature T iff Qi <= Ti for all i. When
/// several safe versions exist, the repository picks the best match by a
/// Manhattan-like distance between the signatures.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_TYPES_SIGNATURE_H
#define MAJIC_TYPES_SIGNATURE_H

#include "types/Type.h"

#include <vector>

namespace majic {

class TypeSignature {
public:
  TypeSignature() = default;
  explicit TypeSignature(std::vector<Type> Types) : Types(std::move(Types)) {}

  /// The signature of a concrete invocation.
  static TypeSignature ofValues(const std::vector<ValuePtr> &Args);

  /// The fully generic signature of arity \p N (every parameter top).
  static TypeSignature generic(size_t N);

  size_t size() const { return Types.size(); }
  bool empty() const { return Types.empty(); }
  const Type &operator[](size_t I) const { return Types[I]; }
  const std::vector<Type> &types() const { return Types; }

  /// Safety: invocation *this may run code compiled for \p CodeSig.
  bool safeFor(const TypeSignature &CodeSig) const;

  /// Manhattan-like distance used by the function locator to rank multiple
  /// safe candidates; smaller is a tighter (better-optimized) match.
  double distance(const TypeSignature &CodeSig) const;

  /// A widened copy: intrinsic types and scalar-ness are kept, but value
  /// ranges and exact array shapes are erased. The engine compiles this
  /// version when repeated invocations miss with the same "skeleton" but
  /// different constants (e.g. recursive calls), so the repository holds
  /// one general version instead of one per argument value.
  TypeSignature generalized() const;

  bool operator==(const TypeSignature &O) const { return Types == O.Types; }

  std::string str() const;

  /// False only when str() of this signature and of \p O certainly
  /// differ (Type::mayRenderSame per parameter).
  bool mayRenderSame(const TypeSignature &O) const;

private:
  std::vector<Type> Types;
};

} // namespace majic

#endif // MAJIC_TYPES_SIGNATURE_H
