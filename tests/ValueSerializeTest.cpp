//===- tests/ValueSerializeTest.cpp - Workspace snapshot format ------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The MJWS workspace payload codec behind session hibernation: round
// trips are bit-identical for every Value class - including empties,
// complex planes, logical masks, NaN payloads and signed zeros - because a
// resurrected session must be indistinguishable from one that never left
// memory, and the decoders refuse malformed encodings that a checksum
// cannot catch (a writer bug). The container around the payload, and
// every bit flip, truncation and garbage file, is EnvelopeTest's.
//
//===----------------------------------------------------------------------===//

#include "runtime/ValueSerialize.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

using namespace majic;

namespace {

uint64_t bitsOf(double X) {
  uint64_t B;
  std::memcpy(&B, &X, sizeof(B));
  return B;
}

double doubleFromBits(uint64_t B) {
  double X;
  std::memcpy(&X, &B, sizeof(X));
  return X;
}

/// Bit-level equality: NaN payloads and -0.0 must survive, so == is not
/// good enough.
void expectBitIdentical(const Value &A, const Value &B) {
  ASSERT_EQ(A.mclass(), B.mclass());
  if (A.isString()) {
    EXPECT_EQ(A.stringValue(), B.stringValue());
    return;
  }
  ASSERT_EQ(A.rows(), B.rows());
  ASSERT_EQ(A.cols(), B.cols());
  for (size_t I = 0; I != A.numel(); ++I) {
    EXPECT_EQ(bitsOf(A.re(I)), bitsOf(B.re(I))) << "re[" << I << "]";
    if (A.isComplex()) {
      EXPECT_EQ(bitsOf(A.im(I)), bitsOf(B.im(I))) << "im[" << I << "]";
    }
  }
}

Value roundTrip(const Value &V) {
  ser::ByteWriter W;
  ser::writeValue(W, V);
  std::string Bytes = W.take();
  ser::ByteReader R(Bytes);
  Value Out = ser::readValue(R);
  EXPECT_TRUE(R.atEnd()) << "decoder left trailing bytes behind";
  return Out;
}

/// One representative of every shape x class combination the workspace
/// can hold.
std::vector<Value> corpus() {
  std::vector<Value> Vs;
  Vs.push_back(Value::boolScalar(true));
  Vs.push_back(Value::boolScalar(false));
  Value Mask = Value::zeros(2, 3, MClass::Bool); // a logical mask
  Mask.reData()[0] = 1;
  Mask.reData()[3] = 1;
  Mask.reData()[5] = 1;
  Vs.push_back(Mask);
  Vs.push_back(Value::intScalar(42));
  Vs.push_back(Value::intScalar(-7));
  Value Ints = Value::zeros(3, 1, MClass::Int);
  for (size_t I = 0; I != 3; ++I)
    Ints.reData()[I] = double(I) - 1;
  Vs.push_back(Ints);
  Vs.push_back(Value::scalar(3.5));
  Value Hard = Value::zeros(1, 5, MClass::Real);
  Hard.reData()[0] = doubleFromBits(0x7ff8deadbeefcafeULL); // NaN w/ payload
  Hard.reData()[1] = -0.0;
  Hard.reData()[2] = std::numeric_limits<double>::infinity();
  Hard.reData()[3] = -std::numeric_limits<double>::infinity();
  Hard.reData()[4] = std::numeric_limits<double>::denorm_min();
  Vs.push_back(Hard);
  Vs.push_back(Value::complexScalar(1.5, -2.5));
  Value Cplx = Value::zeros(2, 2, MClass::Complex);
  for (size_t I = 0; I != 4; ++I) {
    Cplx.reData()[I] = double(I) * 0.25;
    Cplx.imData()[I] = -double(I);
  }
  Cplx.imData()[3] = doubleFromBits(0xfff8000000000001ULL); // -NaN payload
  Vs.push_back(Cplx);
  Vs.push_back(Value::str("hello"));
  Vs.push_back(Value::str(""));
  Vs.push_back(Value::str(std::string("a\0b", 3))); // NUL-safe
  // Empties of every class: numel 0 but the shape still round-trips.
  Vs.push_back(Value::zeros(0, 0, MClass::Real));
  Vs.push_back(Value::zeros(0, 5, MClass::Real));
  Vs.push_back(Value::zeros(3, 0, MClass::Int));
  Vs.push_back(Value::zeros(0, 0, MClass::Complex));
  Vs.push_back(Value::zeros(0, 4, MClass::Bool));
  return Vs;
}

/// A workspace image exercising both sections of the payload.
ser::WorkspaceImage sampleImage() {
  ser::WorkspaceImage W;
  W.Sources.push_back({"bump", "function y = bump(x)\ny = x + 1;\n"});
  W.Sources.push_back({"twice", "function y = twice(x)\ny = 2 * x;\n"});
  for (Value &V : corpus()) {
    ser::WorkspaceImage::VarDef D;
    D.Name = "v" + std::to_string(W.Vars.size());
    D.V = std::make_shared<Value>(std::move(V));
    W.Vars.push_back(std::move(D));
  }
  return W;
}

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(ValueSerializeTest, EveryClassRoundTripsBitIdentically) {
  for (const Value &V : corpus()) {
    SCOPED_TRACE("class " + std::to_string(int(V.mclass())) + " " +
                 std::to_string(V.rows()) + "x" + std::to_string(V.cols()));
    expectBitIdentical(V, roundTrip(V));
  }
}

TEST(ValueSerializeTest, WorkspaceImageRoundTrips) {
  ser::WorkspaceImage W = sampleImage();
  std::string Bytes = ser::encodeWorkspace(W);
  ser::WorkspaceImage Back = ser::decodeWorkspace(Bytes);

  ASSERT_EQ(Back.Sources.size(), W.Sources.size());
  for (size_t I = 0; I != W.Sources.size(); ++I) {
    EXPECT_EQ(Back.Sources[I].Name, W.Sources[I].Name);
    EXPECT_EQ(Back.Sources[I].Text, W.Sources[I].Text);
  }
  ASSERT_EQ(Back.Vars.size(), W.Vars.size());
  for (size_t I = 0; I != W.Vars.size(); ++I) {
    EXPECT_EQ(Back.Vars[I].Name, W.Vars[I].Name);
    expectBitIdentical(*W.Vars[I].V, *Back.Vars[I].V);
  }

  // Deterministic encoding: the same workspace produces the same bytes.
  EXPECT_EQ(ser::encodeWorkspace(Back), Bytes);
}

TEST(ValueSerializeTest, EmptyWorkspaceRoundTrips) {
  ser::WorkspaceImage W;
  ser::WorkspaceImage Back =
      ser::decodeWorkspace(ser::encodeWorkspace(W));
  EXPECT_TRUE(Back.Sources.empty());
  EXPECT_TRUE(Back.Vars.empty());
}

//===----------------------------------------------------------------------===//
// Direct attacks on the per-value decoder
//===----------------------------------------------------------------------===//

TEST(ValueSerializeTest, ReadValueRejectsMalformedEncodings) {
  auto Decode = [](std::function<void(ser::ByteWriter &)> Fill) {
    ser::ByteWriter W;
    Fill(W);
    std::string Bytes = W.take();
    ser::ByteReader R(Bytes);
    return ser::readValue(R);
  };

  // Class byte past String.
  EXPECT_THROW(Decode([](ser::ByteWriter &W) { W.u8(5); }),
               ser::SerializeError);
  // Real claiming an imaginary plane.
  EXPECT_THROW(Decode([](ser::ByteWriter &W) {
                 W.u8(uint8_t(MClass::Real));
                 W.u64(1);
                 W.u64(1);
                 W.u8(1);
                 W.f64(0.0);
                 W.f64(0.0);
               }),
               ser::SerializeError);
  // Complex denying its imaginary plane.
  EXPECT_THROW(Decode([](ser::ByteWriter &W) {
                 W.u8(uint8_t(MClass::Complex));
                 W.u64(1);
                 W.u64(1);
                 W.u8(0);
                 W.f64(0.0);
               }),
               ser::SerializeError);
  // Undefined flag bits.
  EXPECT_THROW(Decode([](ser::ByteWriter &W) {
                 W.u8(uint8_t(MClass::Real));
                 W.u64(1);
                 W.u64(1);
                 W.u8(2);
                 W.f64(0.0);
               }),
               ser::SerializeError);
  // rows * cols overflows.
  EXPECT_THROW(Decode([](ser::ByteWriter &W) {
                 W.u8(uint8_t(MClass::Real));
                 W.u64(uint64_t(1) << 33);
                 W.u64(uint64_t(1) << 33);
                 W.u8(0);
               }),
               ser::SerializeError);
  // Data length exceeding the remaining bytes: the decoder must refuse
  // before allocating, not crash after.
  EXPECT_THROW(Decode([](ser::ByteWriter &W) {
                 W.u8(uint8_t(MClass::Real));
                 W.u64(1u << 20);
                 W.u64(1u << 20);
                 W.u8(0);
                 W.f64(1.0);
               }),
               ser::SerializeError);
}

TEST(ValueSerializeTest, WorkspaceRejectsNonIdentifierVariableNames) {
  // A CRC-valid payload whose variable name is not an identifier can only
  // come from a writer bug or an attack; the decoder still refuses it.
  ser::ByteWriter P;
  P.u32(0); // no sources
  P.u32(1); // one var
  P.str("not an identifier");
  ser::writeValue(P, Value::scalar(1.0));
  EXPECT_THROW(ser::decodeWorkspace(P.take()), ser::SerializeError);
}

} // namespace
