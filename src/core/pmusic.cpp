#include "core/pmusic.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/steering_cache.hpp"
#include "linalg/simd_kernels.hpp"
#include "obs/trace.hpp"
#include "rf/array.hpp"

namespace dwatch::core {

PMusicEstimator::PMusicEstimator(double spacing, double lambda,
                                 PMusicOptions options)
    : spacing_(spacing),
      lambda_(lambda),
      options_(options),
      music_(spacing, lambda, options.music) {
  if (spacing_ <= 0.0 || lambda_ <= 0.0) {
    throw std::invalid_argument("PMusicEstimator: bad spacing/lambda");
  }
}

namespace {

/// a^H R a / M^2 == E[ |sum_m x_m e^{+j omega}|^2 ] / M^2: the
/// alignment weight e^{+j omega(m,theta)} is conj(a_m), so the sum is
/// a^H x and its mean square is a^H R a. Turns the quadratic forms of
/// the kernel into PB values in place.
void quadratic_forms_to_power(std::vector<double>& quad, std::size_t m) {
  for (double& q : quad) q = std::max(q, 0.0) / static_cast<double>(m * m);
}

void check_correlation(const linalg::CMatrix& r) {
  if (r.rows() != r.cols() || r.rows() < 2) {
    throw std::invalid_argument("power_spectrum: bad correlation matrix");
  }
}

}  // namespace

AngularSpectrum PMusicEstimator::power_spectrum(
    const linalg::CMatrix& r) const {
  DWATCH_SPAN("pmusic.power");
  check_correlation(r);
  const std::shared_ptr<const SteeringManifold> manifold =
      SteeringCache::instance().get(r.rows(), spacing_, lambda_,
                                    options_.music.grid_points);
  // Batched over all grid columns of the cached manifold.
  std::vector<double> quad =
      linalg::simd::batched_quadratic_form(r, manifold->soa());
  quadratic_forms_to_power(quad, r.rows());
  return AngularSpectrum(std::move(quad));
}

std::vector<double> PMusicEstimator::power_at(
    const linalg::CMatrix& r, std::span<const std::size_t> bins) const {
  DWATCH_SPAN("pmusic.power");
  check_correlation(r);
  const std::size_t m = r.rows();
  if (bins.empty()) return {};
  const std::shared_ptr<const SteeringManifold> manifold =
      SteeringCache::instance().get(m, spacing_, lambda_,
                                    options_.music.grid_points);
  const linalg::SplitComplexMatrix& full = manifold->soa();
  for (const std::size_t bin : bins) {
    if (bin >= full.cols()) {
      throw std::out_of_range("power_at: bin past the grid");
    }
  }
  // Gather the listed columns; the kernel evaluates every column from
  // its own lanes only, so a gathered column gives the same bits as it
  // does in place.
  linalg::SplitComplexMatrix columns(m, bins.size());
  for (std::size_t row = 0; row < m; ++row) {
    const double* re = full.re_row(row);
    const double* im = full.im_row(row);
    double* out_re = columns.re_row(row);
    double* out_im = columns.im_row(row);
    for (std::size_t k = 0; k < bins.size(); ++k) {
      out_re[k] = re[bins[k]];
      out_im[k] = im[bins[k]];
    }
  }
  std::vector<double> quad = linalg::simd::batched_quadratic_form(r, columns);
  quadratic_forms_to_power(quad, m);
  return quad;
}

PMusicResult PMusicEstimator::estimate(
    const linalg::CMatrix& snapshots) const {
  DWATCH_SPAN("pmusic.spectrum");
  return estimate_from_correlation(sample_correlation(snapshots),
                                   snapshots.cols());
}

PMusicResult PMusicEstimator::estimate_from_correlation(
    const linalg::CMatrix& r, std::size_t num_snapshots) const {
  PMusicResult result;
  result.music = music_.estimate_from_correlation(r, num_snapshots);
  result.power = power_spectrum(r);
  result.music_nor = normalize_peaks(result.music.spectrum, options_.peaks);

  result.omega = AngularSpectrum(options_.music.grid_points);
  for (std::size_t i = 0; i < result.omega.size(); ++i) {
    result.omega[i] = result.power[i] * result.music_nor[i];
  }
  return result;
}

}  // namespace dwatch::core
