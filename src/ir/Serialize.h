//===- ir/Serialize.h - IR binary (de)serialization ------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary (de)serialization of compiled code for the persistent code
/// repository (Section 2: the repository is "a database of compiled code"
/// that outlives a session). The encoding is a flat little-endian byte
/// stream: fixed-width scalars, length-prefixed strings and arrays.
///
/// The deserializer is written for hostile input: every length is checked
/// against the bytes that remain, every enum against its valid range, and
/// any violation raises SerializeError - it must never crash, overflow, or
/// allocate unboundedly, because the repository store feeds it bytes that
/// may have been torn or rotted on disk (the support/Envelope checksum
/// catches virtually all corruption first; this is the second layer).
///
/// Decoded code is additionally validated structurally (validateIRFunction)
/// so the register VM can execute it without per-dispatch bounds checks:
/// every register operand is inside its register file, every pool / name /
/// string / spill index is in range, every branch lands on an instruction,
/// and control flow cannot fall off the end of the code array. What this
/// does NOT re-prove are dynamic-value invariants the compiler established
/// through type inference (e.g. that an unchecked element load is in
/// bounds for the array that reaches it at run time); those rungs of trust
/// rest on the checksum and build-stamp checks that gate admission.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_IR_SERIALIZE_H
#define MAJIC_IR_SERIALIZE_H

#include "ir/Instr.h"
#include "support/ByteStream.h"
#include "types/Signature.h"

#include <cstdint>
#include <string>

namespace majic {
namespace ser {

/// Version of the serialized-code ABI: the IR opcode set and operand
/// layout, the register-allocation contract, and the VM's execution
/// semantics. Bump it whenever a change anywhere in the compile pipeline
/// alters what serialized code *means*; the persistent store discards
/// entries whose stamp differs rather than decode them. Deliberately a
/// hand-maintained constant and not a build timestamp: incremental builds
/// reuse object files, so a timestamp both churns without a semantic
/// change and - worse - stays fixed when a semantic change lands in a
/// different translation unit.
// v3: EwFuse fused elementwise op. v4: output names; the typed self-call
// convention (ArgF/ArgI/OutI/CallSelf). v5: FRand, scalar rand in a register.
// v6: MatMulT/DotT, products with a transposed left operand; mldivide's
// triangular and diagonal solves.
constexpr uint32_t kCodeABIVersion = 6;

// SerializeError / ByteWriter / ByteReader live in support/ByteStream.h so
// the runtime's workspace serializer (runtime/ValueSerialize) can share
// them; this header re-exports the names for its historical clients.

//===----------------------------------------------------------------------===//
// Type signatures and IR functions
//===----------------------------------------------------------------------===//

void writeTypeSignature(ByteWriter &W, const TypeSignature &Sig);
TypeSignature readTypeSignature(ByteReader &R);

void writeIRFunction(ByteWriter &W, const IRFunction &F);
/// Validates opcode ranges and structural counts; throws SerializeError on
/// any malformed encoding. The returned function has passed
/// validateIRFunction.
IRFunction readIRFunction(ByteReader &R);

/// Structural validation of \p F against the VM's execution model: code is
/// non-empty and ends in a terminator (Ret or an unconditional Br), branch
/// targets are instruction indices, every register operand fits its
/// register file, every pool range / name / string / spill / output /
/// parameter index is in bounds, and every immediate-encoded enum
/// (condition codes, intrinsics, classes, runtime ops) is in range.
/// Throws SerializeError on any violation.
void validateIRFunction(const IRFunction &F);

} // namespace ser
} // namespace majic

#endif // MAJIC_IR_SERIALIZE_H
