//===- backend/Platform.h - The target register file ------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register file the linear-scan allocator targets. The paper's two
/// evaluation platforms (a 400MHz UltraSparc 10 and an SGI Origin 200) are
/// irreproducible; `bench_paper` measures the question Figure 5 asked of
/// them - how a better native compiler changes the JIT's standing - with
/// the system C compiler instead (DESIGN.md, substitution #5).
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_BACKEND_PLATFORM_H
#define MAJIC_BACKEND_PLATFORM_H

namespace majic {

struct PlatformModel {
  /// Physical register file sizes the linear-scan allocator targets.
  unsigned NumFRegs = 16;
  unsigned NumIRegs = 16;
  unsigned NumPRegs = 12;

  static PlatformModel sparc() { return PlatformModel(); }
};

} // namespace majic

#endif // MAJIC_BACKEND_PLATFORM_H
