//===- backend/Optimize.h - The "native compiler" pipeline -----*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizing backend standing in for the host C/Fortran compiler of
/// the speculative path (Section 2.6: the source code generator's output
/// is "compiled with the native compiler using the most aggressive
/// optimization mode"; DESIGN.md substitution #2). The JIT deliberately
/// skips this pipeline ("no loop optimizations or instruction scheduling
/// are performed").
///
/// Passes, in order, over unallocated IR:
///   1. Local value numbering: constant folding, copy propagation, CSE.
///      Folding evaluates an opcode's expression row in ir/Opcodes.def,
///      the text the VM runs and the C emitter prints, so a folded
///      constant has the bits the unfolded instruction would compute.
///   2. Cross-statement EwFuse merging: a fused group whose result feeds
///      exactly one later fused group in the same block is inlined into
///      it, eliding the intermediate temporary entirely.
///   3. Loop-invariant code motion over the code generator's loop metadata.
///   4. Unrolling (factor 2 or 4) of small straight-line counted loops.
///   5. Dead code elimination and Nop compaction.
///
/// Which opcodes each pass may delete, move or merge comes from their
/// effect class in ir/Opcodes.def.
///
/// Code selection (selectInstructions) runs after these passes in every
/// mode, the JIT's included, as MaJIC's vcode has register-immediate
/// forms: a constant operand becomes the immediate of an IAddI ... FPowI
/// row, an IToF of a constant an FConst, and a compare whose flag only
/// the Brz after it reads fuses with that Brz.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_BACKEND_OPTIMIZE_H
#define MAJIC_BACKEND_OPTIMIZE_H

#include "ir/Instr.h"

namespace majic {

struct FusionStats;

struct OptimizeOptions {
  /// Unrolling factor of small counted loops; below 2 skips unrolling.
  unsigned UnrollFactor = 2;
  /// When non-null, EwFuse merges adjust these compile-wide fusion
  /// counters (one fewer group, one more elided temporary per merge).
  FusionStats *Fusion = nullptr;
};

struct OptimizeStats {
  unsigned NumFolded = 0;
  unsigned NumCSE = 0;
  unsigned NumHoisted = 0;
  unsigned NumLoopsUnrolled = 0;
  unsigned NumDead = 0;
  unsigned NumEwFuseMerged = 0;
};

struct SelectStats {
  unsigned NumImmediates = 0;    ///< Operands that became immediates.
  unsigned NumFusedBranches = 0; ///< Compare + Brz pairs fused.
  unsigned NumConstantsDropped = 0;
};

/// Code selection over unallocated IR, in one linear pass: an operand
/// whose register has one def, an FConst or IConst, becomes the
/// immediate (the right operand; for IAdd, FAdd and FMul also the left,
/// unless it is a NaN); an IToF of one becomes an FConst; an FCmp or ICmp
/// whose flag only the next instruction, a Brz no branch targets, reads
/// fuses with it into FCmpBrz/ICmpBrz. Constants left unread are
/// dropped.
SelectStats selectInstructions(IRFunction &F);

/// Optimizes \p F in place. Requires unallocated code; preserves loop
/// metadata across in-place passes and recomputes it across rebuilds.
OptimizeStats optimize(IRFunction &F, const OptimizeOptions &Opts = {});

} // namespace majic

#endif // MAJIC_BACKEND_OPTIMIZE_H
