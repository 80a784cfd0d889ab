//===- infer/TypeCalculator.h - The type calculator ------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The type calculator (Section 2.3.1): the transfer functions of the type
/// inference engine, implemented as a database of guarded rules. Multiple
/// rules may exist per operator/builtin; each has a boolean precondition and
/// rules are tried most-restrictive-first ("evaluating more restrictive
/// rules first makes sense because these generally lead to better
/// performance"). When no precondition holds, the implicit default rule
/// applies: all outputs are set to top.
///
/// The paper's calculator held about 250 rules; a test asserts this
/// implementation stays in that ballpark.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_INFER_TYPECALCULATOR_H
#define MAJIC_INFER_TYPECALCULATOR_H

#include "ast/AST.h"
#include "types/Type.h"

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace majic {

/// Knobs for the Figure 7 ablation study.
struct InferOptions {
  /// Range propagation (constant propagation + subscript check removal
  /// fuel). The "no ranges" bars of Figure 7 disable this.
  bool EnableRanges = true;
  /// Minimum-shape propagation (exact shapes, small-vector unrolling).
  /// The "no min. shapes" bars of Figure 7 disable this.
  bool EnableMinShapes = true;
  /// Iteration cap of the dataflow engine before widening (Section 2.3:
  /// the engine "caps the number of iterations").
  unsigned MaxPasses = 8;
  /// Optimistic real-domain math: sqrt/log/asin/acos of a real value whose
  /// domain cannot be proven stay Real, protected by a runtime guard that
  /// triggers deoptimization (recompile without optimism) on violation.
  /// Without this, one unproven sqrt poisons whole arrays to complex.
  bool OptimisticRealMath = true;

  /// Applies the ablations to a computed type.
  Type normalize(Type T) const;
};

/// The value of a zero-argument constant builtin whose type carries it as
/// a degenerate range (pi, eps, Inf, true, ...), or nullopt for any other
/// name. The code generator folds these whatever EnableRanges is set to.
std::optional<double> constantBuiltinValue(std::string_view Name);

class TypeCalculator {
public:
  static const TypeCalculator &instance();

  /// Result type of a binary operator; the first rule whose precondition
  /// holds wins, otherwise top.
  Type binary(rt::BinOp Op, const Type &A, const Type &B,
              const InferOptions &Opts) const;

  Type unary(UnaryOpKind Op, const Type &A, const InferOptions &Opts) const;

  /// lo:hi / lo:step:hi (Step null for the two-operand form).
  Type colon(const Type &Lo, const Type *Step, const Type &Hi,
             const InferOptions &Opts) const;

  /// Result types of builtin \p Name (empty when the builtin produces no
  /// value). Unknown builtins yield top.
  std::vector<Type> builtin(const std::string &Name,
                            std::span<const Type> Args, size_t NumOuts,
                            const InferOptions &Opts) const;

  /// Backward mode (Section 2.3.1/2.5): given a desired result type for a
  /// binary operator, infer operand hints. Returns false when no backward
  /// rule applies.
  bool backwardBinary(rt::BinOp Op, const Type &ResultHint, Type &AHint,
                      Type &BHint) const;
  bool backwardUnary(UnaryOpKind Op, const Type &ResultHint,
                     Type &OperandHint) const;

  /// Total number of rules in the database (paper: ~250).
  unsigned numRules() const;

  /// Name of the binary rule that fired for the given operands, for tests
  /// of the most-restrictive-first ordering ("" when the default applied).
  std::string firedBinaryRule(rt::BinOp Op, const Type &A,
                              const Type &B) const;

private:
  TypeCalculator();

  struct BinaryRule {
    std::string Name;
    std::function<bool(const Type &, const Type &)> Pre;
    std::function<Type(const Type &, const Type &)> Apply;
  };
  struct UnaryRule {
    std::string Name;
    std::function<bool(const Type &)> Pre;
    std::function<Type(const Type &)> Apply;
  };
  struct BuiltinRule {
    std::string Name;
    std::function<bool(std::span<const Type>)> Pre;
    std::function<std::vector<Type>(std::span<const Type>, size_t)> Apply;
    /// Rule only applies under InferOptions::OptimisticRealMath.
    bool Optimistic = false;
  };

  void addBinary(rt::BinOp Op, std::string Name,
                 std::function<bool(const Type &, const Type &)> Pre,
                 std::function<Type(const Type &, const Type &)> Apply);
  void addUnary(UnaryOpKind Op, std::string Name,
                std::function<bool(const Type &)> Pre,
                std::function<Type(const Type &)> Apply);
  void addBuiltin(std::string Builtin, std::string Name,
                  std::function<bool(std::span<const Type>)> Pre,
                  std::function<std::vector<Type>(std::span<const Type>,
                                                  size_t)> Apply,
                  bool Optimistic = false);

  void registerArithmeticRules();
  void registerComparisonRules();
  void registerUnaryRules();
  void registerCreatorBuiltins();
  void registerQueryBuiltins();
  void registerMathBuiltins();
  void registerReductionBuiltins();
  void registerLinalgBuiltins();
  void registerConstantBuiltins();
  void registerIoBuiltins();

  std::unordered_map<uint8_t, std::vector<BinaryRule>> BinaryRules;
  std::unordered_map<uint8_t, std::vector<UnaryRule>> UnaryRules;
  std::unordered_map<std::string, std::vector<BuiltinRule>> BuiltinRules;
  unsigned RuleCount = 0;
};

} // namespace majic

#endif // MAJIC_INFER_TYPECALCULATOR_H
