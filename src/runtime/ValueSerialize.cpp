//===- runtime/ValueSerialize.cpp - Workspace snapshots --------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ValueSerialize.h"

#include <limits>

using namespace majic;
using namespace majic::ser;

namespace {

// arrayLen sanity floors: the smallest possible encoding of one element.
constexpr size_t kSourceBytes = 4 + 4;  // two length-prefixed strings
constexpr size_t kVarBytes = 4 + 1 + 5; // name prefix + class + string value

/// Workspace variable names come from the parser, so anything else in a
/// snapshot is corruption that slipped past the checksum.
bool validIdentifier(const std::string &S) {
  if (S.empty())
    return false;
  auto Word = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
  };
  if (!Word(S[0]))
    return false;
  for (char C : S.substr(1))
    if (!Word(C) && !(C >= '0' && C <= '9'))
      return false;
  return true;
}

} // namespace

void majic::ser::writeValue(ByteWriter &W, const Value &V) {
  W.u8(static_cast<uint8_t>(V.mclass()));
  if (V.isString()) {
    // Shape is derivable (1 x len, or 0 x 0 when empty), so only the text
    // is encoded; Value::str() reconstructs the rest.
    W.str(V.stringValue());
    return;
  }
  W.u64(V.rows());
  W.u64(V.cols());
  W.u8(V.isComplex() ? 1 : 0);
  size_t N = V.numel();
  for (size_t I = 0; I != N; ++I)
    W.f64(V.re(I));
  if (V.isComplex())
    for (size_t I = 0; I != N; ++I)
      W.f64(V.im(I));
}

Value majic::ser::readValue(ByteReader &R) {
  uint8_t Raw = R.u8();
  if (Raw > static_cast<uint8_t>(MClass::String))
    throw SerializeError("invalid value class");
  MClass Cls = static_cast<MClass>(Raw);
  if (Cls == MClass::String)
    return Value::str(R.str());

  uint64_t Rows = R.u64();
  uint64_t Cols = R.u64();
  if (Rows && Cols > std::numeric_limits<uint64_t>::max() / Rows)
    throw SerializeError("value shape overflows");
  uint64_t N = Rows * Cols;
  uint8_t Flags = R.u8();
  if (Flags & ~uint8_t(1))
    throw SerializeError("invalid value flags");
  bool HasImag = Flags & 1;
  // The imaginary plane exists exactly when the class is Complex; a
  // CRC-passing snapshot can only disagree through a writer bug, but the
  // decoder still refuses to construct the impossible Value.
  if (HasImag != (Cls == MClass::Complex))
    throw SerializeError("imaginary flag does not match value class");
  uint64_t Planes = HasImag ? 2 : 1;
  if (N > std::numeric_limits<uint64_t>::max() / 8 / Planes ||
      N * 8 * Planes > R.remaining())
    throw SerializeError("value data exceeds remaining bytes");

  Value V = Value::zeros(static_cast<size_t>(Rows),
                         static_cast<size_t>(Cols), Cls);
  size_t Count = static_cast<size_t>(N);
  double *Re = V.reData();
  for (size_t I = 0; I != Count; ++I)
    Re[I] = R.f64();
  if (HasImag) {
    double *Im = V.imData();
    for (size_t I = 0; I != Count; ++I)
      Im[I] = R.f64();
  }
  return V;
}

std::string majic::ser::encodeWorkspace(const WorkspaceImage &W) {
  ByteWriter P;
  P.u32(static_cast<uint32_t>(W.Sources.size()));
  for (const WorkspaceImage::SourceDef &S : W.Sources) {
    P.str(S.Name);
    P.str(S.Text);
  }
  P.u32(static_cast<uint32_t>(W.Vars.size()));
  for (const WorkspaceImage::VarDef &Var : W.Vars) {
    P.str(Var.Name);
    writeValue(P, *Var.V);
  }
  return P.take();
}

WorkspaceImage majic::ser::decodeWorkspace(std::string_view Payload) {
  ByteReader R(Payload.data(), Payload.size());
  WorkspaceImage W;
  uint32_t NSources = R.arrayLen(kSourceBytes);
  W.Sources.reserve(NSources);
  for (uint32_t I = 0; I != NSources; ++I) {
    WorkspaceImage::SourceDef S;
    S.Name = R.str();
    S.Text = R.str();
    W.Sources.push_back(std::move(S));
  }
  uint32_t NVars = R.arrayLen(kVarBytes);
  W.Vars.reserve(NVars);
  for (uint32_t I = 0; I != NVars; ++I) {
    WorkspaceImage::VarDef Var;
    Var.Name = R.str();
    if (!validIdentifier(Var.Name))
      throw SerializeError("workspace variable name is not an identifier");
    Var.V = std::make_shared<Value>(readValue(R));
    W.Vars.push_back(std::move(Var));
  }
  if (!R.atEnd())
    throw SerializeError("trailing bytes after workspace payload");
  return W;
}
