//===- runtime/Value.cpp - The MATLAB value -------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Value.h"

#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace majic;

namespace {

/// Maps an allocation failure (real or injected, including a live-byte
/// limit breach) to the recoverable MATLAB error every execution path
/// already knows how to unwind.
[[noreturn]] void throwOutOfMemory(size_t R, size_t C) {
  throw MatlabError(format("out of memory allocating a %zux%zu matrix", R, C));
}

} // namespace

const char *majic::mclassName(MClass C) {
  switch (C) {
  case MClass::Bool:
    return "logical";
  case MClass::Int:
    return "int";
  case MClass::Real:
    return "double";
  case MClass::Complex:
    return "complex";
  case MClass::String:
    return "char";
  }
  majic_unreachable("invalid MClass");
}

Value Value::zeros(size_t R, size_t C, MClass Cls) {
  Value V;
  V.reshapeUninit(R, C, Cls == MClass::Complex);
  std::fill(V.ReData.begin(), V.ReData.end(), 0.0);
  std::fill(V.ImData.begin(), V.ImData.end(), 0.0);
  V.Class = Cls;
  return V;
}

Value Value::uninit(size_t R, size_t C, MClass Cls) {
  Value V;
  V.reshapeUninit(R, C, Cls == MClass::Complex);
  V.Class = Cls;
  return V;
}

Value Value::range(double First, double Step, double Last) {
  Value V;
  if (Step == 0)
    throw MatlabError("colon operands must define a nonzero increment");
  double Span = (Last - First) / Step;
  size_t N = Span < 0 ? 0 : static_cast<size_t>(std::floor(Span + 1e-10)) + 1;
  V.reshapeUninit(1, N, /*WithImag=*/false);
  for (size_t I = 0; I != N; ++I)
    V.ReData[I] = First + static_cast<double>(I) * Step;
  bool Integral = First == std::floor(First) && Step == std::floor(Step);
  V.Class = Integral ? MClass::Int : MClass::Real;
  return V;
}

bool Value::allImagZero() const {
  for (double X : ImData)
    if (X != 0.0)
      return false;
  return true;
}

double Value::scalarValue() const {
  if (isString()) {
    if (Str.size() == 1)
      return static_cast<double>(static_cast<unsigned char>(Str[0]));
    throw MatlabError("expected a scalar value, got a string");
  }
  if (!isScalar())
    throw MatlabError(format("expected a scalar value, got a %zux%zu matrix",
                             NumRows, NumCols));
  return ReData[0];
}

bool Value::isTrue() const {
  if (isEmpty())
    return false;
  if (isString()) {
    for (char Ch : Str)
      if (Ch == 0)
        return false;
    return true;
  }
  for (size_t I = 0, E = numel(); I != E; ++I)
    if (ReData[I] == 0.0)
      return false;
  return true;
}

void Value::reshapeUninit(size_t R, size_t C, bool WithImag) {
  // Commit the new shape only after the storage exists: a failed resize
  // must leave the value self-consistent (numel() never exceeds storage).
  // The injected fault fires inside the try so it takes the exact same
  // recovery path as a real allocation failure.
  try {
    faults::maybeThrowOom(faults::Site::ValueAlloc);
    ReData.resize(R * C);
    ImData.resize(WithImag ? R * C : 0);
  } catch (const std::bad_alloc &) {
    throwOutOfMemory(R, C);
  }
  NumRows = R;
  NumCols = C;
  Str.clear();
}

void Value::resizeErase(size_t R, size_t C, bool WithImag) {
  reshapeUninit(R, C, WithImag);
  std::fill(ReData.begin(), ReData.end(), 0.0);
  std::fill(ImData.begin(), ImData.end(), 0.0);
  if (Class == MClass::String)
    Class = MClass::Real;
}

void Value::growTo(size_t R, size_t C) {
  if (isString())
    throw MatlabError("cannot grow a string by indexed assignment");
  size_t NewR = std::max(R, NumRows), NewC = std::max(C, NumCols);
  if (NewR == NumRows && NewC == NumCols)
    return;

  bool WithImag = !ImData.empty();
  // Fast path: a column vector growing in rows, or any matrix gaining
  // columns only, keeps its column-major layout; grow in place. Apply the
  // paper's ~10% oversizing so that loop-driven growth amortizes.
  bool InPlace = (NumCols <= 1 && NewC <= 1) || (NewR == NumRows);
  if (InPlace) {
    size_t Needed = NewR * NewC;
    try {
      faults::maybeThrowOom(faults::Site::ValueAlloc);
      if (Needed > ReData.capacity()) {
        size_t Oversized = Needed + Needed / 10 + 4;
        ReData.reserve(Oversized);
        if (WithImag)
          ImData.reserve(Oversized);
      }
      ReData.resize(Needed, 0.0);
      if (WithImag)
        ImData.resize(Needed, 0.0);
    } catch (const std::bad_alloc &) {
      throwOutOfMemory(NewR, NewC);
    }
    NumRows = NewR;
    NumCols = NewC;
    return;
  }

  // General case: re-stride into a fresh buffer. Large arrays are never
  // oversized (Section 2.6.1).
  TrackedDoubles NewRe, NewIm;
  try {
    faults::maybeThrowOom(faults::Site::ValueAlloc);
    NewRe.assign(NewR * NewC, 0.0);
    NewIm.assign(WithImag ? NewR * NewC : 0, 0.0);
  } catch (const std::bad_alloc &) {
    throwOutOfMemory(NewR, NewC);
  }
  for (size_t CIdx = 0; CIdx != NumCols; ++CIdx) {
    for (size_t RIdx = 0; RIdx != NumRows; ++RIdx) {
      NewRe[CIdx * NewR + RIdx] = ReData[CIdx * NumRows + RIdx];
      if (WithImag)
        NewIm[CIdx * NewR + RIdx] = ImData[CIdx * NumRows + RIdx];
    }
  }
  ReData = std::move(NewRe);
  ImData = std::move(NewIm);
  NumRows = NewR;
  NumCols = NewC;
}

void Value::makeComplex() {
  if (isString())
    throw MatlabError("cannot convert a string to complex");
  if (ImData.empty()) {
    try {
      faults::maybeThrowOom(faults::Site::ValueAlloc);
      ImData.assign(numel(), 0.0);
    } catch (const std::bad_alloc &) {
      throwOutOfMemory(NumRows, NumCols);
    }
  }
  Class = MClass::Complex;
}

bool Value::demoteComplexIfReal() {
  if (Class != MClass::Complex || !allImagZero())
    return false;
  ImData.clear();
  Class = MClass::Real;
  return true;
}

Value &majic::makeUnique(ValuePtr &P) {
  assert(P && "null value");
  if (P.use_count() > 1)
    P = std::make_shared<Value>(*P);
  return *P;
}
