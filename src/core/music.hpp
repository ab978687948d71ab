// The classical MUSIC direction-of-arrival estimator (Schmidt 1986),
// with spatial smoothing for coherent backscatter multipath.
//
// B(theta) = 1 / (a(theta)^H U_N U_N^H a(theta))      (paper Eq. 8)
//
// MUSIC gives D-Watch its angles; what it canNOT give is per-path signal
// power (its peak height is a pseudo-probability) — that gap is the
// motivation for P-MUSIC (paper Section 3.2 / Fig. 4).
#pragma once

#include <cstddef>
#include <vector>

#include "core/covariance.hpp"
#include "core/source_count.hpp"
#include "core/spectrum.hpp"
#include "linalg/complex_matrix.hpp"
#include "linalg/hermitian_eig.hpp"
#include "rf/constants.hpp"

namespace dwatch::core {

struct MusicOptions {
  /// Spectrum grid resolution over [0, pi].
  std::size_t grid_points = AngularSpectrum::kDefaultPoints;
  /// Spatial-smoothing subarray size L; 0 = default_subarray(M); M = no
  /// smoothing.
  std::size_t subarray = 0;
  /// Forward-backward (true) or forward-only smoothing.
  bool forward_backward = true;
  /// 0 = dense EVD (the default, bit-stable legacy path). K > 0 caps
  /// the signal-subspace rank and switches to the truncated eigensolver
  /// (linalg/truncated_eig.hpp): only the top-K eigenpairs are
  /// extracted and the spectrum denominator comes from the complement
  /// identity ||U_N^H a||^2 = ||a||^2 - ||U_S^H a||^2. Acts as a
  /// model-order cap exactly like SourceCountOptions::max_sources; the
  /// estimator silently falls back to the dense path when K is too
  /// close to the subarray size, when the iteration stalls, or when
  /// the eigen-gap evidence suggests more than K sources.
  std::size_t max_signal_rank = 0;
  SourceCountOptions source_count;
};

struct MusicResult {
  AngularSpectrum spectrum;            ///< B(theta)
  std::size_t num_sources = 0;         ///< estimated P
  std::size_t subarray = 0;            ///< L actually used
  /// Of the (smoothed) correlation. On the truncated path entries past
  /// the extracted rank are a synthetic uniform tail reconstructed
  /// from the trace (their SUM is exact; the split is not).
  std::vector<double> eigenvalues;
  /// U_N, L x (L - P). EMPTY when `truncated` — the truncated solver
  /// never forms the noise basis (that is the point); callers needing
  /// U_N explicitly must run with max_signal_rank = 0.
  linalg::CMatrix noise_subspace;
  linalg::CMatrix signal_subspace;     ///< U_S, L x P
  /// True when the spectrum came from the truncated eigensolver via
  /// the complement identity rather than a dense EVD.
  bool truncated = false;
};

/// MUSIC estimator bound to one array geometry.
class MusicEstimator {
 public:
  /// Throws std::invalid_argument on non-positive spacing/lambda.
  MusicEstimator(double spacing, double lambda, MusicOptions options = {});

  [[nodiscard]] const MusicOptions& options() const noexcept {
    return options_;
  }

  /// Brownout knob: retarget MusicOptions::max_signal_rank at runtime
  /// (0 restores the dense EVD path). The option is read per estimate()
  /// call, so this takes effect on the next estimate with no other
  /// state to invalidate.
  void set_max_signal_rank(std::size_t rank) noexcept {
    options_.max_signal_rank = rank;
  }

  /// Full MUSIC from an M x N snapshot matrix.
  [[nodiscard]] MusicResult estimate(const linalg::CMatrix& snapshots) const;

  /// MUSIC from a precomputed M x M correlation matrix.
  [[nodiscard]] MusicResult estimate_from_correlation(
      const linalg::CMatrix& r, std::size_t num_snapshots) const;

  /// Spectrum value B(theta) for a given noise subspace (exposed for the
  /// calibration objective, which evaluates a(theta)^H Gamma^H U_N).
  /// Regenerates a(theta) per call; the estimate path instead uses the
  /// cached steering manifold via noise_spectrum().
  [[nodiscard]] double spectrum_value(const linalg::CMatrix& noise_subspace,
                                      double theta) const;

  /// Full spectrum B over the grid for a given noise subspace, computed
  /// through the cached steering manifold as one U_N^H A projection.
  /// Numerically identical to calling spectrum_value at every grid
  /// angle.
  [[nodiscard]] AngularSpectrum noise_spectrum(
      const linalg::CMatrix& noise_subspace) const;

 private:
  /// Truncated-EVD estimate (options_.max_signal_rank > 0). Returns
  /// false — leaving `out` untouched — whenever the dense path should
  /// run instead: rank too close to L, iteration stalled, or the
  /// solver already fell back internally.
  bool try_truncated_estimate(const linalg::CMatrix& smoothed,
                              std::size_t num_snapshots,
                              MusicResult& out) const;

  /// B(theta) from the SIGNAL subspace via the complement identity
  /// ||U_N^H a||^2 = ||a||^2 - ||U_S^H a||^2 (manifold column norms
  /// are cached, so U_N is never formed).
  [[nodiscard]] AngularSpectrum complement_spectrum(
      const linalg::CMatrix& signal_subspace) const;

  double spacing_;
  double lambda_;
  MusicOptions options_;
};

}  // namespace dwatch::core
