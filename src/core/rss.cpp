#include "core/rss.hpp"

#include <cmath>
#include <complex>
#include <vector>

namespace dwatch::core {

double phase_coherence(const linalg::CMatrix& snapshots) {
  const std::size_t m_rows = snapshots.rows();
  const std::size_t n_cols = snapshots.cols();
  if (m_rows <= 1 || n_cols == 0) return 1.0;
  // |reference| of each column, shared by every row.
  std::vector<double> ref_abs(n_cols);
  for (std::size_t n = 0; n < n_cols; ++n) {
    ref_abs[n] = std::abs(snapshots(0, n));
  }
  double total = 0.0;
  for (std::size_t m = 1; m < m_rows; ++m) {
    std::complex<double> acc{0.0, 0.0};
    std::size_t terms = 0;
    for (std::size_t n = 0; n < n_cols; ++n) {
      const std::complex<double> x = snapshots(m, n);
      const std::complex<double> r = snapshots(0, n);
      const double mag = std::abs(x) * ref_abs[n];
      if (mag < 1e-12) continue;  // a dead sample carries no phase
      acc += x * std::conj(r) / mag;
      ++terms;
    }
    total += terms == 0 ? 0.0 : std::abs(acc) / static_cast<double>(terms);
  }
  return total / static_cast<double>(m_rows - 1);
}

}  // namespace dwatch::core
