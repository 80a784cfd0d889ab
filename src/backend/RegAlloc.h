//===- backend/RegAlloc.h - Linear-scan register allocation ----*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-scan register allocation (Poletto & Sarkar, the paper's
/// reference [19]; MaJIC "re-implemented the register allocator used by
/// tcc"). Virtual F and I registers are mapped onto the platform's fixed
/// register files; intervals that do not fit are spilled to frame slots
/// with explicit reload/store instructions. Boxed P registers model stack
/// handles and are not subject to allocation.
///
/// Intervals come from a backward liveness analysis over basic blocks, as
/// in Poletto & Sarkar: a register's interval is the hull of its defs and
/// uses plus the blocks it is live into or out of. Only a value live
/// around a back edge holds its register across the loop; a loop-body
/// temporary holds it from its def to its last use.
///
/// The "no regalloc" ablation of Figure 7 ("forcing the linear-scan
/// register allocator to spill every variable ... roughly equivalent to
/// compiling with the -g flag") is the SpillEverything mode.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_BACKEND_REGALLOC_H
#define MAJIC_BACKEND_REGALLOC_H

#include "backend/Platform.h"
#include "ir/Instr.h"

#include <array>
#include <vector>

namespace majic {

/// The basic blocks of an IR function. A block starts at position 0, at
/// each branch target and right after each branch or Ret; block K covers
/// the instructions [Begin[K], Begin[K + 1]).
struct BlockGraph {
  std::vector<int32_t> Begin; ///< One entry per block, then Code.size().
  /// Successor blocks: a branch's target first, then the fallthrough; -1
  /// when absent (Ret, Br, the end of the code).
  std::vector<std::array<int32_t, 2>> Succs;

  size_t numBlocks() const { return Succs.size(); }
};

BlockGraph buildBlockGraph(const IRFunction &F);

struct LiveInterval {
  int32_t VReg;
  int32_t Start; ///< First position the register is live at, inclusive.
  int32_t End;   ///< Last position, inclusive.
  int32_t Assigned = -1; ///< Physical register, or -1 when spilled.
  int32_t Slot = -1;     ///< Spill slot, or -1 when assigned.
};

/// The live intervals of every F and every I register a function
/// mentions, per class, sorted by start.
struct LiveIntervals {
  std::vector<LiveInterval> F, I;
};

/// Computes \p F's intervals from a backward liveness over the blocks of
/// buildBlockGraph(F), treating each def as a kill.
LiveIntervals liveIntervals(const IRFunction &F);

struct RegAllocOptions {
  /// Figure 7's "no regalloc" bars: every virtual register lives in a
  /// spill slot and every access goes through scratch registers.
  bool SpillEverything = false;
};

struct RegAllocStats {
  unsigned NumFSpilled = 0;
  unsigned NumISpilled = 0;
  unsigned NumSpillInstrs = 0;
};

/// Allocates \p F in place (rewriting register operands, inserting spill
/// code and patching branch targets). Marks the function Allocated.
RegAllocStats allocateRegisters(IRFunction &F, const PlatformModel &Platform,
                                const RegAllocOptions &Opts = {});

} // namespace majic

#endif // MAJIC_BACKEND_REGALLOC_H
