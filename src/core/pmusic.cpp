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

AngularSpectrum PMusicEstimator::power_spectrum(
    const linalg::CMatrix& r) const {
  DWATCH_SPAN("pmusic.power");
  if (r.rows() != r.cols() || r.rows() < 2) {
    throw std::invalid_argument("power_spectrum: bad correlation matrix");
  }
  const std::size_t m = r.rows();
  const std::shared_ptr<const SteeringManifold> manifold =
      SteeringCache::instance().get(m, spacing_, lambda_,
                                    options_.music.grid_points);
  // a^H R a / M^2 == E[ |sum_m x_m e^{+j omega}|^2 ] / M^2: the
  // alignment weight e^{+j omega(m,theta)} is conj(a_m), so the sum is
  // a^H x and its mean square is a^H R a. Batched over all grid columns
  // of the cached manifold (delay-and-sum is the hottest kernel in the
  // fix path).
  const std::vector<double> quad =
      linalg::simd::batched_quadratic_form(r, manifold->soa());
  AngularSpectrum pb(options_.music.grid_points);
  for (std::size_t i = 0; i < pb.size(); ++i) {
    pb[i] = std::max(quad[i], 0.0) / static_cast<double>(m * m);
  }
  return pb;
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
