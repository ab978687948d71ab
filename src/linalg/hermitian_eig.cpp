#include "linalg/hermitian_eig.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace dwatch::linalg {

namespace {

/// Sum of |a_rc|^2 over strictly-upper off-diagonal entries.
double off_diagonal_norm(const CMatrix& a) {
  double sum = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = r + 1; c < a.cols(); ++c) sum += std::norm(a(r, c));
  }
  return std::sqrt(2.0 * sum);
}

/// One complex Jacobi rotation zeroing a(p,q).
///
/// For a Hermitian A, the 2x2 principal submatrix
///   [ a_pp      a_pq ]
///   [ conj(a_pq) a_qq ]
/// is diagonalized by the unitary
///   J = [ c           s e^{j phi} ]
///       [ -s e^{-j phi}     c     ]
/// with a_pq = |a_pq| e^{j phi}.
void jacobi_rotate(CMatrix& a, CMatrix& v, std::size_t p, std::size_t q) {
  const Complex apq = a(p, q);
  const double abs_apq = std::abs(apq);
  if (abs_apq == 0.0) return;

  const double app = a(p, p).real();
  const double aqq = a(q, q).real();
  const Complex phase = apq / abs_apq;  // e^{j phi}

  // Classic symmetric Jacobi angle on the "rephased" real problem.
  const double tau = (aqq - app) / (2.0 * abs_apq);
  const double t = (tau >= 0.0)
                       ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                       : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  const double s = t * c;

  const Complex sp = s * phase;  // s e^{j phi}

  // Update rows/cols p and q of A: A <- J^H A J.
  for (std::size_t k = 0; k < a.rows(); ++k) {
    if (k == p || k == q) continue;
    const Complex akp = a(k, p);
    const Complex akq = a(k, q);
    a(k, p) = c * akp - std::conj(sp) * akq;
    a(k, q) = sp * akp + c * akq;
    a(p, k) = std::conj(a(k, p));
    a(q, k) = std::conj(a(k, q));
  }
  const double new_app = app - t * abs_apq;
  const double new_aqq = aqq + t * abs_apq;
  a(p, p) = Complex{new_app, 0.0};
  a(q, q) = Complex{new_aqq, 0.0};
  a(p, q) = Complex{0.0, 0.0};
  a(q, p) = Complex{0.0, 0.0};

  // Accumulate eigenvectors: V <- V J.
  for (std::size_t k = 0; k < v.rows(); ++k) {
    const Complex vkp = v(k, p);
    const Complex vkq = v(k, q);
    v(k, p) = c * vkp - std::conj(sp) * vkq;
    v(k, q) = sp * vkp + c * vkq;
  }
}

}  // namespace

EigenDecomposition hermitian_eig(CMatrix a, const JacobiOptions& opts) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("hermitian_eig: matrix not square");
  }
  if (!a.is_hermitian(1e-8)) {
    throw std::invalid_argument("hermitian_eig: matrix not Hermitian");
  }
  const std::size_t n = a.rows();
  // Symmetrize exactly to suppress tiny numerical asymmetry accumulation.
  for (std::size_t r = 0; r < n; ++r) {
    a(r, r) = Complex{a(r, r).real(), 0.0};
    for (std::size_t c = r + 1; c < n; ++c) {
      const Complex avg = 0.5 * (a(r, c) + std::conj(a(c, r)));
      a(r, c) = avg;
      a(c, r) = std::conj(avg);
    }
  }

  CMatrix v = CMatrix::identity(n);
  const double scale = std::max(a.frobenius_norm(), 1e-300);

  bool converged = (n <= 1);
  for (std::size_t sweep = 0; sweep < opts.max_sweeps && !converged;
       ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (std::abs(a(p, q)) > opts.tolerance * scale * 1e-3) {
          jacobi_rotate(a, v, p, q);
        }
      }
    }
    converged = off_diagonal_norm(a) <= opts.tolerance * scale;
  }
  if (!converged) {
    throw std::runtime_error("hermitian_eig: Jacobi failed to converge");
  }

  EigenDecomposition out;
  out.eigenvalues.resize(n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> raw(n);
  for (std::size_t i = 0; i < n; ++i) raw[i] = a(i, i).real();
  std::sort(order.begin(), order.end(),
            [&raw](std::size_t x, std::size_t y) { return raw[x] > raw[y]; });

  out.eigenvectors = CMatrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = raw[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      out.eigenvectors(i, j) = v(i, order[j]);
    }
  }
  return out;
}

CMatrix reconstruct(const EigenDecomposition& eig) {
  const std::size_t n = eig.eigenvalues.size();
  CMatrix lambda(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    lambda(i, i) = Complex{eig.eigenvalues[i], 0.0};
  }
  return eig.eigenvectors * lambda * eig.eigenvectors.hermitian();
}

}  // namespace dwatch::linalg
