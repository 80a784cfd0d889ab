//===- runtime/Value.h - The MATLAB value (mxArray equivalent) -*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic MATLAB value: a 2-D column-major matrix of doubles (optionally
/// with an imaginary part) or a string, tagged with a class. This plays the
/// role of the mxArray in the paper's generated code (Figure 3).
///
/// Resize-on-write: assigning past the end of an array grows it, and vectors
/// are "oversized" by ~10% (Section 2.6.1) so that repeated growth in a loop
/// does not reallocate every time. Oversizing is invisible to size()/numel().
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_RUNTIME_VALUE_H
#define MAJIC_RUNTIME_VALUE_H

#include "support/Error.h"
#include "support/ResourceGuard.h"

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace majic {

/// The dynamic class of a Value. Mirrors the intrinsic type lattice's
/// concrete elements (Section 2.2): bool < int < real < cplx, and string.
enum class MClass : uint8_t { Bool, Int, Real, Complex, String };

const char *mclassName(MClass C);

class Value;
using ValuePtr = std::shared_ptr<Value>;

/// Value element storage: accounted against the process-wide live-byte
/// limit (support/ResourceGuard.h), so a runaway workspace surfaces as a
/// recoverable out-of-memory MatlabError instead of an OOM kill.
using TrackedDoubles = std::vector<double, mem::TrackingAllocator<double>>;

/// A MATLAB value: an R x C column-major matrix of doubles (with optional
/// imaginary parts) or a string. Bool/Int values are stored as doubles, as
/// MATLAB itself does; the class tag records the most specific known class.
class Value {
public:
  /// Creates the empty 0x0 real matrix ([]).
  Value() = default;

  //===--------------------------------------------------------------------===
  // Factories
  //===--------------------------------------------------------------------===

  static Value scalar(double X) {
    Value V;
    V.reshapeUninit(1, 1, /*WithImag=*/false);
    V.ReData[0] = X;
    V.Class = MClass::Real;
    return V;
  }

  static Value intScalar(double X) {
    Value V = scalar(X);
    V.Class = MClass::Int;
    return V;
  }

  static Value boolScalar(bool X) {
    Value V = scalar(X ? 1.0 : 0.0);
    V.Class = MClass::Bool;
    return V;
  }

  static Value complexScalar(double Re, double Im) {
    Value V;
    V.reshapeUninit(1, 1, /*WithImag=*/true);
    V.ReData[0] = Re;
    V.ImData[0] = Im;
    V.Class = MClass::Complex;
    return V;
  }

  /// An R x C matrix of zeros with class \p C (no imaginary part unless
  /// \p C is Complex).
  static Value zeros(size_t R, size_t C, MClass Cls = MClass::Real);

  /// An R x C matrix of class \p Cls whose elements (both planes when
  /// \p Cls is Complex) are left UNINITIALIZED. For kernels that overwrite
  /// every element in one pass (the fused elementwise executor, transpose)
  /// the zero-fill of zeros() would be a second, wasted memory sweep.
  static Value uninit(size_t R, size_t C, MClass Cls = MClass::Real);

  static Value str(std::string S) {
    Value V;
    V.Class = MClass::String;
    V.Str = std::move(S);
    V.NumRows = V.Str.empty() ? 0 : 1;
    V.NumCols = V.Str.size();
    return V;
  }

  /// Builds a row vector [First : Step : Last]; empty when the range is.
  static Value range(double First, double Step, double Last);

  //===--------------------------------------------------------------------===
  // Shape and class queries
  //===--------------------------------------------------------------------===

  MClass mclass() const { return Class; }
  void setClass(MClass C) { Class = C; }

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }
  size_t numel() const { return NumRows * NumCols; }
  bool isEmpty() const { return numel() == 0; }
  bool isScalar() const { return NumRows == 1 && NumCols == 1; }
  bool isVector() const { return NumRows == 1 || NumCols == 1; }
  bool isRowVector() const { return NumRows == 1 && NumCols >= 1; }
  bool isColVector() const { return NumCols == 1 && NumRows >= 1; }
  bool isString() const { return Class == MClass::String; }
  bool isComplex() const { return Class == MClass::Complex; }
  bool isNumeric() const { return Class != MClass::String; }

  /// True when every imaginary part is exactly zero (trivially true for
  /// non-complex values).
  bool allImagZero() const;

  //===--------------------------------------------------------------------===
  // Element access (0-based internally; MATLAB-level indexing lives in Ops)
  //===--------------------------------------------------------------------===

  double re(size_t Linear) const {
    assert(Linear < numel() && "element index out of range");
    return ReData[Linear];
  }
  double im(size_t Linear) const {
    assert(Linear < numel() && "element index out of range");
    return ImData.empty() ? 0.0 : ImData[Linear];
  }
  double &reRef(size_t Linear) {
    assert(Linear < numel() && "element index out of range");
    return ReData[Linear];
  }
  double &imRef(size_t Linear) {
    assert(!ImData.empty() && Linear < numel() && "no imaginary storage");
    return ImData[Linear];
  }

  double at(size_t R, size_t C) const { return ReData[C * NumRows + R]; }
  double atIm(size_t R, size_t C) const {
    return ImData.empty() ? 0.0 : ImData[C * NumRows + R];
  }

  /// Raw column-major storage, used by the register VM for unboxed access.
  double *reData() { return ReData.data(); }
  const double *reData() const { return ReData.data(); }
  double *imData() { return ImData.data(); }
  const double *imData() const { return ImData.data(); }

  const std::string &stringValue() const {
    assert(isString() && "not a string");
    return Str;
  }

  /// The scalar double value; throws MatlabError when not a numeric scalar.
  double scalarValue() const;

  /// Truthiness for if/while: true iff non-empty and all elements non-zero.
  /// Imaginary parts are disregarded, as MATLAB's conditions do (Section 2.5).
  bool isTrue() const;

  //===--------------------------------------------------------------------===
  // Mutation
  //===--------------------------------------------------------------------===

  /// Reallocates to R x C without preserving contents; fills with zeros.
  void resizeErase(size_t R, size_t C, bool WithImag);

  /// Grows to at least R x C, preserving existing elements and zero-filling
  /// new ones. MATLAB array-resizing semantics for out-of-range writes.
  /// Applies ~10% oversizing to growing vectors (Section 2.6.1).
  void growTo(size_t R, size_t C);

  /// Ensures imaginary storage exists (zero-filled), switching to Complex.
  void makeComplex();

  /// Drops the imaginary part if all zero, demoting Complex to Real.
  /// Returns true if a demotion happened.
  bool demoteComplexIfReal();

  /// Total elements of allocated (oversized) storage; tests use this to
  /// verify oversizing happens and that it is invisible to numel().
  size_t capacityElems() const { return ReData.capacity(); }

private:
  /// Sets the shape; new elements are left unwritten (TrackedDoubles
  /// default-initializes), so every caller writes each element.
  void reshapeUninit(size_t R, size_t C, bool WithImag);

  MClass Class = MClass::Real;
  size_t NumRows = 0;
  size_t NumCols = 0;
  TrackedDoubles ReData;
  TrackedDoubles ImData;
  std::string Str;
};

/// Copy-on-write helper: makes \p P uniquely owned (cloning if shared) and
/// returns a mutable reference. Implements MATLAB's call-by-value semantics
/// without eagerly copying read-only arguments (Section 2.6.1 notes MaJIC
/// avoids copying read-only formals; CoW gives the same effect).
Value &makeUnique(ValuePtr &P);

/// Convenience shared_ptr factories.
inline ValuePtr makeValue(Value V) { return std::make_shared<Value>(std::move(V)); }
inline ValuePtr makeScalar(double X) { return makeValue(Value::scalar(X)); }
inline ValuePtr makeBool(bool X) { return makeValue(Value::boolScalar(X)); }

} // namespace majic

#endif // MAJIC_RUNTIME_VALUE_H
