#include "core/music.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/steering_cache.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/truncated_eig.hpp"
#include "obs/trace.hpp"
#include "rf/array.hpp"

namespace dwatch::core {

namespace {

/// ||U^H a(theta_i)||^2 per grid column, on the active SIMD backend.
std::vector<double> subspace_projection_norms(
    const linalg::CMatrix& u, const SteeringManifold& manifold) {
  namespace simd = linalg::simd;
  return simd::column_squared_norms(
      simd::matmul_hermitian_left(u, manifold.soa()));
}

}  // namespace

MusicEstimator::MusicEstimator(double spacing, double lambda,
                               MusicOptions options)
    : spacing_(spacing), lambda_(lambda), options_(options) {
  if (spacing_ <= 0.0 || lambda_ <= 0.0) {
    throw std::invalid_argument("MusicEstimator: bad spacing/lambda");
  }
}

MusicResult MusicEstimator::estimate(const linalg::CMatrix& snapshots) const {
  return estimate_from_correlation(sample_correlation(snapshots),
                                   snapshots.cols());
}

MusicResult MusicEstimator::estimate_from_correlation(
    const linalg::CMatrix& r, std::size_t num_snapshots) const {
  DWATCH_SPAN("music.spectrum");
  if (r.rows() != r.cols() || r.rows() < 2) {
    throw std::invalid_argument("MusicEstimator: bad correlation matrix");
  }
  const std::size_t m = r.rows();
  std::size_t l = options_.subarray == 0 ? default_subarray(m)
                                         : options_.subarray;
  if (l < 2 || l > m) {
    throw std::invalid_argument("MusicEstimator: bad subarray size");
  }

  const linalg::CMatrix smoothed =
      l == m ? r
             : (options_.forward_backward ? forward_backward_smooth(r, l)
                                          : forward_smooth(r, l));

  if (options_.max_signal_rank > 0) {
    MusicResult truncated;
    if (try_truncated_estimate(smoothed, num_snapshots, truncated)) {
      return truncated;
    }
    // Fall through: the dense path below is the safety net.
  }

  const linalg::EigenDecomposition eig = linalg::hermitian_eig(smoothed);

  SourceCountOptions sc = options_.source_count;
  sc.num_snapshots = num_snapshots;
  const std::size_t p = estimate_source_count(eig.eigenvalues, sc);

  MusicResult result;
  result.num_sources = p;
  result.subarray = l;
  result.eigenvalues = eig.eigenvalues;
  result.signal_subspace = eig.eigenvectors.block(0, 0, l, p);
  result.noise_subspace = eig.eigenvectors.block(0, p, l, l - p);

  result.spectrum = noise_spectrum(result.noise_subspace);
  return result;
}

MusicResult MusicEstimator::estimate_from_subspace(
    const linalg::CMatrix& signal_subspace,
    const std::vector<double>& eigenvalues, double trace,
    std::size_t num_snapshots) const {
  DWATCH_SPAN("music.tracked_spectrum");
  const std::size_t l = signal_subspace.rows();
  const std::size_t k = signal_subspace.cols();
  if (l < 2 || k == 0 || k >= l || eigenvalues.size() != k) {
    throw std::invalid_argument(
        "MusicEstimator: bad tracked subspace dimensions");
  }

  // Same synthetic tail as try_truncated_estimate: the top K Ritz
  // values are (near-)exact, the discarded mass is spread uniformly so
  // its SUM stays exact for the source-count threshold rule.
  std::vector<double> full = eigenvalues;
  double extracted = 0.0;
  for (const double v : full) extracted += v;
  double tail =
      std::max((trace - extracted) / static_cast<double>(l - k), 0.0);
  tail = std::min(tail, full.back());
  full.resize(l, tail);

  SourceCountOptions sc = options_.source_count;
  sc.num_snapshots = num_snapshots;
  const std::size_t p = std::min(estimate_source_count(full, sc), k);

  MusicResult out;
  out.num_sources = p;
  out.subarray = l;
  out.eigenvalues = std::move(full);
  out.signal_subspace = signal_subspace.block(0, 0, l, p);
  out.noise_subspace = linalg::CMatrix{};  // never formed, as truncated
  out.truncated = true;
  out.spectrum = complement_spectrum(out.signal_subspace);
  return out;
}

AngularSpectrum MusicEstimator::noise_spectrum(
    const linalg::CMatrix& noise_subspace) const {
  const std::shared_ptr<const SteeringManifold> manifold =
      SteeringCache::instance().get(noise_subspace.rows(), spacing_, lambda_,
                                    options_.grid_points);
  // ||U_N^H a(theta_i)||^2 for all grid points in one batched projection.
  const std::vector<double> denom =
      subspace_projection_norms(noise_subspace, *manifold);
  AngularSpectrum spectrum(options_.grid_points);
  for (std::size_t i = 0; i < denom.size(); ++i) {
    spectrum[i] = 1.0 / std::max(denom[i], 1e-12);
  }
  return spectrum;
}

bool MusicEstimator::try_truncated_estimate(const linalg::CMatrix& smoothed,
                                            std::size_t num_snapshots,
                                            MusicResult& out) const {
  const std::size_t l = smoothed.rows();
  const std::size_t k = std::min(options_.max_signal_rank, l);
  // At K >= L-1 the truncated solver would dense-fallback internally
  // anyway; let the caller's dense path handle it in one place.
  if (k + 1 >= l) return false;

  linalg::TruncatedEigOptions topt;
  topt.rank = k;
  const linalg::TruncatedEigResult trunc =
      linalg::truncated_hermitian_eig(smoothed, topt);
  if (!trunc.converged || trunc.used_dense_fallback) return false;

  // Source counting needs a full eigenvalue list. The top K are exact;
  // the discarded mass (trace minus extracted sum) is spread as a
  // uniform tail — its SUM is exact, which is what the threshold rule's
  // noise-floor mean consumes. Clamp keeps the list descending even
  // when rounding pushes the tail above lambda_K.
  std::vector<double> eigenvalues = trunc.eigenvalues;
  double extracted = 0.0;
  for (const double v : eigenvalues) extracted += v;
  double tail =
      std::max((trunc.trace - extracted) / static_cast<double>(l - k), 0.0);
  if (!eigenvalues.empty()) tail = std::min(tail, eigenvalues.back());
  eigenvalues.resize(l, tail);

  SourceCountOptions sc = options_.source_count;
  sc.num_snapshots = num_snapshots;
  // max_signal_rank is a model-order cap with the same contract as
  // SourceCountOptions::max_sources: never report more sources than
  // eigenpairs extracted.
  const std::size_t p =
      std::min(estimate_source_count(eigenvalues, sc), k);

  out.num_sources = p;
  out.subarray = l;
  out.eigenvalues = std::move(eigenvalues);
  out.signal_subspace = trunc.eigenvectors.block(0, 0, l, p);
  out.noise_subspace = linalg::CMatrix{};  // never formed (documented)
  out.truncated = true;
  out.spectrum = complement_spectrum(out.signal_subspace);
  return true;
}

AngularSpectrum MusicEstimator::complement_spectrum(
    const linalg::CMatrix& signal_subspace) const {
  const std::shared_ptr<const SteeringManifold> manifold =
      SteeringCache::instance().get(signal_subspace.rows(), spacing_, lambda_,
                                    options_.grid_points);
  const std::vector<double> proj =
      subspace_projection_norms(signal_subspace, *manifold);
  const std::vector<double>& norms = manifold->column_norms();
  AngularSpectrum spectrum(options_.grid_points);
  for (std::size_t i = 0; i < proj.size(); ++i) {
    spectrum[i] = 1.0 / std::max(norms[i] - proj[i], 1e-12);
  }
  return spectrum;
}

double MusicEstimator::spectrum_value(const linalg::CMatrix& noise_subspace,
                                      double theta) const {
  const std::size_t l = noise_subspace.rows();
  const linalg::CVector a = rf::steering_vector(l, theta, spacing_, lambda_);
  // ||U_N^H a||^2 without forming the projector.
  double denom = 0.0;
  for (std::size_t q = 0; q < noise_subspace.cols(); ++q) {
    linalg::Complex dot{};
    for (std::size_t i = 0; i < l; ++i) {
      dot += std::conj(noise_subspace(i, q)) * a[i];
    }
    denom += std::norm(dot);
  }
  return 1.0 / std::max(denom, 1e-12);
}

}  // namespace dwatch::core
