// Hermitian eigendecomposition via the cyclic complex Jacobi method.
//
// MUSIC and the wireless phase calibration both require the
// eigenstructure of the (Hermitian, positive semi-definite) array
// correlation matrix R = E[X X^H] (paper Eq. 5-6). The matrices involved
// are small (M <= 8 antennas, smoothed subarrays 4..6), where Jacobi
// iteration is simple, numerically robust and fast enough — each sweep is
// O(n^3) and convergence is quadratic.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/complex_matrix.hpp"

namespace dwatch::linalg {

/// Result of a Hermitian eigendecomposition A = V diag(w) V^H.
struct EigenDecomposition {
  /// Eigenvalues sorted in DESCENDING order (signal eigenvalues first,
  /// matching the paper's lambda_1 >= ... >= lambda_M convention).
  std::vector<double> eigenvalues;
  /// Unit-norm eigenvectors as matrix columns, column i pairs with
  /// eigenvalues[i].
  CMatrix eigenvectors;
};

/// Options for the Jacobi iteration.
struct JacobiOptions {
  /// Stop when the off-diagonal Frobenius norm falls below
  /// `tolerance * ||A||_F`.
  double tolerance = 1e-12;
  /// Hard cap on full sweeps; exceeded => std::runtime_error (should never
  /// happen for PSD correlation matrices of the sizes we use).
  std::size_t max_sweeps = 100;
};

/// Eigendecomposition of a Hermitian matrix.
///
/// Throws std::invalid_argument if `a` is not square or not Hermitian
/// within 1e-8, std::runtime_error if Jacobi fails to converge.
/// Jacobi eigendecomposition of a Hermitian matrix. `a` is taken by
/// value because the sweeps rotate it in place. The copy then happens
/// at the call site, so the sweep loops compile the same whether or not
/// link-time optimization inlines the matrix copy. Inlined into this
/// body, it changed the loops' code generation, and the serving
/// benchmark's rooms set-up (mostly 6 x 6 baseline decompositions) ran
/// 15-20% slower.
[[nodiscard]] EigenDecomposition hermitian_eig(CMatrix a,
                                               const JacobiOptions& opts = {});

/// Reconstruct V diag(w) V^H; handy for testing round trips.
[[nodiscard]] CMatrix reconstruct(const EigenDecomposition& eig);

}  // namespace dwatch::linalg
