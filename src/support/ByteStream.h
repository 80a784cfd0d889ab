//===- support/ByteStream.h - Bounds-checked byte (de)coding ---*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level primitives every persistent format in the system is built
/// on: a little-endian ByteWriter and a bounds-checked ByteReader. They
/// started life inside ir/Serialize (the compiled-code repository format)
/// and moved down to support/ when workspace snapshots needed the same
/// discipline from the runtime layer, which sits *below* the IR in the
/// link order.
///
/// The reader is written for hostile input: every length is checked against
/// the bytes that remain, and any violation raises SerializeError - it must
/// never crash, overflow, or allocate unboundedly, because the stores feed
/// it bytes that may have been torn or rotted on disk (the support/Envelope
/// checksum catches virtually all corruption first; this is the second
/// layer).
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_SUPPORT_BYTESTREAM_H
#define MAJIC_SUPPORT_BYTESTREAM_H

#include <cstdint>
#include <stdexcept>
#include <string>

namespace majic {
namespace ser {

/// Raised by the readers on any malformed input.
class SerializeError : public std::runtime_error {
public:
  explicit SerializeError(const std::string &What)
      : std::runtime_error("serialize: " + What) {}
};

/// Appends little-endian fixed-width values to a byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V);
  void u64(uint64_t V);
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V);
  /// Length-prefixed (u32) byte string.
  void str(const std::string &S);

  const std::string &bytes() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

/// Bounds-checked reader over a byte buffer; throws SerializeError on any
/// read past the end.
class ByteReader {
public:
  ByteReader(const void *Data, size_t Len)
      : P(static_cast<const unsigned char *>(Data)), End(P + Len) {}
  explicit ByteReader(const std::string &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}

  uint8_t u8();
  uint32_t u32();
  uint64_t u64();
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64();
  std::string str();

  /// An array length that claims more elements than the remaining bytes
  /// could hold (at \p MinElemBytes each) is corrupt; reject it before
  /// allocating.
  uint32_t arrayLen(size_t MinElemBytes);

  size_t remaining() const { return static_cast<size_t>(End - P); }
  bool atEnd() const { return P == End; }

private:
  void need(size_t N);
  const unsigned char *P;
  const unsigned char *End;
};

} // namespace ser
} // namespace majic

#endif // MAJIC_SUPPORT_BYTESTREAM_H
