// Streaming spectral state (DESIGN.md §16): the per-(array, tag)
// accumulator that turns the per-epoch batch recompute into an
// incremental path. Each incoming report extends the raw outer-product
// sum S = X X^H (no divide), so the correlation read back after any
// number of chunks is BIT-IDENTICAL to core::sample_correlation over
// the concatenated snapshots, on every SIMD backend.
#pragma once

#include <cstddef>

#include "linalg/complex_matrix.hpp"
#include "linalg/soa_complex.hpp"

namespace dwatch::core {

/// Per-(array, tag) streaming covariance accumulator. accumulate() is
/// the rank-N update (one call per incoming report); correlation()
/// divides once, reproducing the batch kernel bit for bit.
class IncrementalCovariance {
 public:
  /// Throws std::invalid_argument on M == 0.
  explicit IncrementalCovariance(std::size_t num_elements);

  /// Fold one M x N snapshot chunk into the outer-product sum. The
  /// addition chain continues exactly where the previous chunk left
  /// off (see linalg::simd::accumulate_outer_products). Throws
  /// std::invalid_argument on a row-count mismatch or empty chunk.
  void accumulate(const linalg::CMatrix& snapshots);

  /// R = S / N over everything accumulated so far. Bit-identical to
  /// core::sample_correlation on the concatenated snapshot matrix.
  /// Throws std::logic_error before the first accumulate().
  [[nodiscard]] linalg::CMatrix correlation() const;

  [[nodiscard]] std::size_t num_snapshots() const noexcept {
    return num_snapshots_;
  }
  [[nodiscard]] std::size_t num_elements() const noexcept { return m_; }

  /// Drop the accumulated sum (epoch boundary). The object stays bound
  /// to its element count.
  void reset();

 private:
  std::size_t m_;
  std::size_t num_snapshots_ = 0;
  /// Raw outer-product sum, SoA so the vector kernel updates in place.
  linalg::SplitComplexMatrix sum_;
};

}  // namespace dwatch::core
