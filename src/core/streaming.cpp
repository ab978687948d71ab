#include "core/streaming.hpp"

#include <cmath>
#include <complex>
#include <stdexcept>

#include "linalg/hermitian_eig.hpp"
#include "linalg/simd_kernels.hpp"

namespace dwatch::core {

namespace {

double frobenius_norm(const linalg::CMatrix& a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      sum += std::norm(a(i, j));
    }
  }
  return std::sqrt(sum);
}

double real_trace(const linalg::CMatrix& a) {
  double t = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) t += a(i, i).real();
  return t;
}

/// In-place modified Gram-Schmidt on the columns of `z`. Returns false
/// when a column collapses below the degeneracy floor (the iterate lost
/// rank — the caller falls back to the dense oracle).
bool orthonormalize_columns(linalg::CMatrix& z) {
  constexpr double kDegenerate = 1e-14;
  const std::size_t l = z.rows();
  const std::size_t k = z.cols();
  for (std::size_t q = 0; q < k; ++q) {
    for (std::size_t p = 0; p < q; ++p) {
      linalg::Complex dot{};
      for (std::size_t i = 0; i < l; ++i) {
        dot += std::conj(z(i, p)) * z(i, q);
      }
      for (std::size_t i = 0; i < l; ++i) z(i, q) -= dot * z(i, p);
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < l; ++i) norm += std::norm(z(i, q));
    norm = std::sqrt(norm);
    if (norm < kDegenerate) return false;
    const linalg::Complex inv{1.0 / norm, 0.0};
    for (std::size_t i = 0; i < l; ++i) z(i, q) *= inv;
  }
  return true;
}

}  // namespace

IncrementalCovariance::IncrementalCovariance(std::size_t num_elements)
    : m_(num_elements), sum_(num_elements, num_elements) {
  if (num_elements == 0) {
    throw std::invalid_argument("IncrementalCovariance: M == 0");
  }
}

void IncrementalCovariance::accumulate(const linalg::CMatrix& snapshots) {
  if (snapshots.rows() != m_) {
    throw std::invalid_argument(
        "IncrementalCovariance: snapshot row mismatch");
  }
  if (snapshots.cols() == 0) {
    throw std::invalid_argument("IncrementalCovariance: empty chunk");
  }
  linalg::simd::accumulate_outer_products(
      linalg::SplitComplexMatrix::from_matrix_transposed(snapshots), sum_);
  num_snapshots_ += snapshots.cols();
}

linalg::CMatrix IncrementalCovariance::correlation() const {
  if (num_snapshots_ == 0) {
    throw std::logic_error(
        "IncrementalCovariance: correlation() before accumulate()");
  }
  const double n_d = static_cast<double>(num_snapshots_);
  linalg::CMatrix r(m_, m_);
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < m_; ++j) {
      r(i, j) = sum_.at(i, j) / n_d;
    }
  }
  return r;
}

void IncrementalCovariance::reset() {
  sum_ = linalg::SplitComplexMatrix(m_, m_);
  num_snapshots_ = 0;
}

SubspaceTracker::SubspaceTracker(SubspaceTrackerOptions options)
    : options_(options) {
  if (options_.rank == 0) {
    throw std::invalid_argument("SubspaceTracker: rank == 0");
  }
  if (!(options_.divergence_tolerance > 0.0)) {
    throw std::invalid_argument(
        "SubspaceTracker: divergence_tolerance must be positive");
  }
}

void SubspaceTracker::dense_reset(const linalg::CMatrix& a, std::size_t k) {
  const linalg::EigenDecomposition eig = linalg::hermitian_eig(a);
  u_ = eig.eigenvectors.block(0, 0, a.rows(), k);
  eigenvalues_.assign(eig.eigenvalues.begin(),
                      eig.eigenvalues.begin() + static_cast<long>(k));
  ++resets_;
  invalidated_ = false;
}

SubspaceUpdateResult SubspaceTracker::update(const linalg::CMatrix& a) {
  if (a.rows() != a.cols() || a.rows() < 2) {
    throw std::invalid_argument("SubspaceTracker: bad correlation matrix");
  }
  const std::size_t l = a.rows();
  const std::size_t k = std::min(options_.rank, l - 1);
  ++updates_;
  trace_ = real_trace(a);

  SubspaceUpdateResult out;
  const bool cold =
      invalidated_ || u_.rows() != l || u_.cols() != k;
  if (!cold) {
    // Warm path: a few rounds of subspace iteration keep the basis
    // locked onto the dominant eigenspace as A drifts between reports.
    linalg::CMatrix u = u_;
    bool degenerate = false;
    for (std::size_t it = 0; it < options_.refine_iterations; ++it) {
      linalg::CMatrix z = a * u;
      if (!orthonormalize_columns(z)) {
        degenerate = true;
        break;
      }
      u = std::move(z);
    }
    if (!degenerate) {
      // Rayleigh-Ritz: rotate the iterate into Ritz vectors so the
      // basis columns pair with descending Ritz values (symmetrized —
      // U^H A U is Hermitian only up to rounding).
      linalg::CMatrix h = (u.hermitian() * a) * u;
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i; j < k; ++j) {
          const linalg::Complex avg =
              0.5 * (h(i, j) + std::conj(h(j, i)));
          h(i, j) = avg;
          h(j, i) = std::conj(avg);
        }
      }
      const linalg::EigenDecomposition ritz = linalg::hermitian_eig(h);
      u = u * ritz.eigenvectors;

      // Divergence contract: relative Ritz residual against the
      // batch-oracle bound.
      linalg::CMatrix resid = a * u;
      for (std::size_t j = 0; j < k; ++j) {
        const linalg::Complex lambda{ritz.eigenvalues[j], 0.0};
        for (std::size_t i = 0; i < l; ++i) {
          resid(i, j) -= lambda * u(i, j);
        }
      }
      const double a_norm = frobenius_norm(a);
      const double rel =
          a_norm > 0.0 ? frobenius_norm(resid) / a_norm : 0.0;
      if (a_norm > 0.0 && rel <= options_.divergence_tolerance) {
        u_ = std::move(u);
        eigenvalues_ = ritz.eigenvalues;
        out.residual = rel;
        return out;
      }
      out.residual = rel;
    }
  }

  dense_reset(a, k);
  out.reset = true;
  out.residual = 0.0;
  return out;
}

}  // namespace dwatch::core
