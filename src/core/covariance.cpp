#include "core/covariance.hpp"

#include <stdexcept>

#include "linalg/simd_kernels.hpp"
#include "linalg/soa_complex.hpp"

namespace dwatch::core {

linalg::CMatrix sample_correlation(const linalg::CMatrix& x) {
  if (x.rows() == 0 || x.cols() == 0) {
    throw std::invalid_argument("sample_correlation: empty snapshot matrix");
  }
  // Transposed SoA: snapshot k becomes a contiguous row, so the kernel
  // vector-loads across array elements.
  return linalg::simd::sample_correlation(
      linalg::SplitComplexMatrix::from_matrix_transposed(x));
}

linalg::CMatrix forward_smooth(const linalg::CMatrix& r,
                               std::size_t subarray) {
  const std::size_t m = r.rows();
  if (r.rows() != r.cols()) {
    throw std::invalid_argument("forward_smooth: R not square");
  }
  if (subarray < 2 || subarray > m) {
    throw std::invalid_argument("forward_smooth: bad subarray size");
  }
  const std::size_t count = m - subarray + 1;
  linalg::CMatrix out(subarray, subarray);
  for (std::size_t s = 0; s < count; ++s) {
    out += r.block(s, s, subarray, subarray);
  }
  out *= linalg::Complex{1.0 / static_cast<double>(count), 0.0};
  return out;
}

linalg::CMatrix forward_backward_smooth(const linalg::CMatrix& r,
                                        std::size_t subarray) {
  linalg::CMatrix fwd = forward_smooth(r, subarray);
  const std::size_t l = fwd.rows();
  // Backward: J conj(R_f) J where J is the exchange matrix.
  linalg::CMatrix bwd(l, l);
  for (std::size_t i = 0; i < l; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      bwd(i, j) = std::conj(fwd(l - 1 - i, l - 1 - j));
    }
  }
  linalg::CMatrix out = fwd;
  out += bwd;
  out *= linalg::Complex{0.5, 0.0};
  return out;
}

std::size_t default_subarray(std::size_t num_elements) noexcept {
  // Keep >= 3 forward subarrays (6 after forward-backward) when the array
  // is large enough; for small arrays fall back to M-1.
  if (num_elements >= 6) return num_elements - 2;
  if (num_elements >= 3) return num_elements - 1;
  return num_elements;
}

}  // namespace dwatch::core
