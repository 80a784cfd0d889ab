//===- runtime/ValueSerialize.h - Workspace snapshots ----------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary (de)serialization of interactive workspaces for session
/// hibernation: when the service's live-session cap is hit, an idle
/// session's state is snapshotted to disk (`.mjws`) and its slot freed; a
/// later request resurrects it transparently. This is the payload codec
/// only: service/SnapshotStore seals it in the support/Envelope container,
/// which owns the header, the validation ladder and the quarantine policy.
///
/// The payload is self-contained: the session's interactive function
/// definitions (source text, replayed through the engine so compiled code
/// comes back from the shared cache) followed by the workspace variables.
/// Values round-trip bit-identically - doubles are moved as raw IEEE bits,
/// so NaN payloads and signed zeros survive - because the acceptance bar
/// for hibernation is that a resurrected session is indistinguishable from
/// one that never left memory.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_RUNTIME_VALUESERIALIZE_H
#define MAJIC_RUNTIME_VALUESERIALIZE_H

#include "runtime/Value.h"
#include "support/ByteStream.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace majic {
namespace ser {

/// Everything a session needs to come back from disk: the interactive
/// function definitions in submission order and the workspace variables
/// (sorted by name so identical workspaces encode to identical bytes).
struct WorkspaceImage {
  struct SourceDef {
    std::string Name; ///< module name at definition time (diagnostic only)
    std::string Text; ///< the source replayed on resurrect
  };
  struct VarDef {
    std::string Name;
    ValuePtr V;
  };
  std::vector<SourceDef> Sources;
  std::vector<VarDef> Vars;
};

/// Encodes one Value. Exposed (with readValue) so the fuzz tests can
/// attack the per-value layout directly.
void writeValue(ByteWriter &W, const Value &V);

/// Decodes one Value; throws SerializeError on any malformed encoding
/// (bad class, shape overflow, data overrunning the buffer, an imaginary
/// flag disagreeing with the class).
Value readValue(ByteReader &R);

/// The workspace payload.
std::string encodeWorkspace(const WorkspaceImage &W);

/// Decodes a workspace payload; throws SerializeError on anything
/// malformed (overrunning lengths, a variable name that is not an
/// identifier, a bad value encoding, trailing bytes).
WorkspaceImage decodeWorkspace(std::string_view Payload);

} // namespace ser
} // namespace majic

#endif // MAJIC_RUNTIME_VALUESERIALIZE_H
