#include "core/streaming.hpp"

#include <stdexcept>

#include "linalg/simd_kernels.hpp"

namespace dwatch::core {

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

}  // namespace dwatch::core
