// P-MUSIC (Power MUSIC) — the paper's core algorithmic contribution
// (Section 4.2).
//
// Traditional MUSIC peaks carry angle but not power. P-MUSIC combines
// two spectra computed from the SAME snapshots:
//
//   PB(theta)  = ||sum_m x_m e^{+j omega(m,theta)}||^2 / M^2   (Eq. 13)
//              — delay-and-sum alignment: signals from `theta` add
//                coherently (x M), everything else averages out;
//   Nor(B)     — the MUSIC spectrum with every peak renormalized to 1,
//                keeping only WHERE the peaks are;
//
//   Omega(theta) = PB(theta) * Nor(B(theta))                   (Eq. 14)
//
// so Omega has MUSIC's angular resolution with honest per-path power —
// the quantity whose drop reveals a blocking target.
#pragma once

#include "core/music.hpp"
#include "core/spectrum.hpp"
#include "linalg/complex_matrix.hpp"

namespace dwatch::core {

struct PMusicOptions {
  MusicOptions music;
  /// Peak handling for the Nor(B) normalization. B's peak heights are
  /// inverse subspace leakage and span orders of magnitude; 0.02 keeps
  /// weak-but-real reflection paths while rejecting ripple. Lower it
  /// further (e.g. 0.002) for controlled few-path scenes (bench_fig12).
  PeakOptions peaks{.min_relative_height = 0.02};
};

struct PMusicResult {
  AngularSpectrum omega;     ///< Omega(theta), the P-MUSIC spectrum
  AngularSpectrum power;     ///< PB(theta), beamforming power
  AngularSpectrum music_nor; ///< Nor(B(theta))
  MusicResult music;         ///< underlying MUSIC result
};

/// P-MUSIC estimator bound to one array geometry.
class PMusicEstimator {
 public:
  PMusicEstimator(double spacing, double lambda, PMusicOptions options = {});

  [[nodiscard]] const PMusicOptions& options() const noexcept {
    return options_;
  }

  /// Brownout knob: forwards to the inner MusicEstimator (see
  /// MusicEstimator::set_max_signal_rank). Kept in sync on options_ so
  /// options().music.max_signal_rank reflects the active value.
  void set_max_signal_rank(std::size_t rank) noexcept {
    options_.music.max_signal_rank = rank;
    music_.set_max_signal_rank(rank);
  }

  /// Full P-MUSIC from an M x N snapshot matrix.
  [[nodiscard]] PMusicResult estimate(const linalg::CMatrix& snapshots) const;

  /// Full P-MUSIC from a precomputed M x M correlation. estimate() is
  /// exactly this on sample_correlation(snapshots).
  [[nodiscard]] PMusicResult estimate_from_correlation(
      const linalg::CMatrix& r, std::size_t num_snapshots) const;

  /// Beamforming power spectrum PB(theta) alone (Eq. 13), computed from
  /// the FULL (unsmoothed) correlation since power lives on the whole
  /// aperture: PB(theta) = a^H R a / M^2.
  [[nodiscard]] AngularSpectrum power_spectrum(const linalg::CMatrix& r) const;

 private:
  double spacing_;
  double lambda_;
  PMusicOptions options_;
  /// The inner MUSIC estimator, built once so repeated estimate() calls
  /// (one per observation on the pipeline hot path) share it.
  MusicEstimator music_;
};

}  // namespace dwatch::core
