//===- runtime/LinAlg.h - Dense linear algebra -----------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense linear algebra used by builtins: triangular, diagonal and LU solves
/// (mldivide), Cholesky factorization (chol), the symmetric eigenproblem by
/// Householder tridiagonalization and implicit-shift QL (eig), and matrix
/// inverse (inv). Real matrices only; the benchmark corpus does not require
/// complex factorizations.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_RUNTIME_LINALG_H
#define MAJIC_RUNTIME_LINALG_H

#include "runtime/Value.h"

namespace majic {
namespace linalg {

/// Solves A * X = B via LU with partial pivoting; A must be square and
/// non-singular (throws MatlabError when numerically singular).
Value luSolve(const Value &A, const Value &B);

/// Solves A * X = B for a square A the way mldivide does: forward or back
/// substitution when A is lower or upper triangular, division when it is
/// diagonal, and luSolve otherwise (a NaN off the diagonal is not zero).
/// Throws luSolve's MatlabError when a diagonal entry is (numerically) zero.
Value solve(const Value &A, const Value &B);

/// Upper-triangular Cholesky factor R with R' * R = A; throws when A is not
/// (numerically) symmetric positive definite.
Value cholesky(const Value &A);

/// Eigenvalues of a symmetric matrix, ascending, as a column vector: a
/// Householder reduction to tridiagonal form, then QL with implicit shifts
/// (EISPACK tred2/tql2, the algorithm LAPACK's dsyev refines). Only the
/// lower triangle is read, after a check that the matrix is square, finite
/// and symmetric to 1e-9 relative. When \p Vectors is non-null, it receives
/// the orthonormal eigenvector matrix, columns in the eigenvalue order and
/// with the signs the rotations leave (not normalized); the eigenvalues are
/// the same bits either way. Throws a MatlabError, and returns nothing, when
/// QL does not converge.
Value symEig(const Value &A, Value *Vectors = nullptr);

/// Matrix inverse via LU solve against the identity.
Value inverse(const Value &A);

/// Determinant via LU factorization.
double determinant(const Value &A);

} // namespace linalg
} // namespace majic

#endif // MAJIC_RUNTIME_LINALG_H
