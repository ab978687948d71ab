// Spectrum-change detection: which paths dropped, and by how much.
//
// D-Watch's observable is the per-path POWER DROP on the P-MUSIC
// spectrum when a target occludes a path (paper Section 4.3, Step 3 of
// the workflow): compare the baseline spectrum (empty scene) with the
// online spectrum and report, for every baseline peak, the fractional
// power drop at that angle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/spectrum.hpp"
#include "rf/constants.hpp"

namespace dwatch::core {

/// One detected path blockage.
struct PathDrop {
  double theta = 0.0;          ///< baseline peak angle [rad]
  double drop_fraction = 0.0;  ///< (P_base - P_online)/P_base, in [0, 1]
  double baseline_power = 0.0;
  double online_power = 0.0;
  /// Which tag's spectrum produced this drop (EPC serial); lets the
  /// outlier rejection distinguish one-tag/many-array ghost patterns
  /// from many-tag/one-array genuine blockage (paper Section 4.3).
  std::uint32_t source_id = 0;
  /// Degraded-mode widening of the localizer's angular kernel for this
  /// drop: >1 when the spectrum behind it was computed from fewer
  /// snapshots than the smoothing minimum (the peak angle is less
  /// trustworthy, so its evidence is spread wider and weighs less at
  /// the center). 1.0 = full confidence; the clean path never changes.
  double sigma_scale = 1.0;
};

struct ChangeDetectorOptions {
  /// Peak detection on the BASELINE spectrum. The default floor is low:
  /// weak reflection-path peaks are exactly the "bad multipaths" D-Watch
  /// wants to watch, and the PB-based online comparison is stable enough
  /// to monitor them without false positives.
  PeakOptions peaks{.min_relative_height = 0.015};
  /// Report a drop only if the fraction exceeds this (absorbs noise and
  /// small spectral jitter).
  double min_drop_fraction = 0.3;
  /// The online power at a baseline peak is taken as the max over a
  /// +/- window this wide, tolerating sub-degree peak wobble.
  double angle_window = rf::deg2rad(2.0);
};

/// A baseline spectrum prepared for detection: its peaks and the grid
/// bins each peak's online window reads. Derived from the baseline
/// alone, so a caller that keeps many baselines can build it once per
/// baseline and evaluate the online spectrum at `bins` only.
struct DetectionWindows {
  struct Window {
    Peak peak;            ///< a baseline peak with value > 0
    std::size_t lo = 0;   ///< first bin of its clamped window
    std::size_t hi = 0;   ///< last bin (inclusive)
  };
  /// In find_peaks order (strongest first).
  std::vector<Window> windows;
  /// Every window's bins lo..hi, window after window; overlapping
  /// windows repeat their shared bins.
  std::vector<std::size_t> bins;
};

/// Compare baseline vs online spectra of ONE (array, tag) pair.
class SpectrumChangeDetector {
 public:
  explicit SpectrumChangeDetector(ChangeDetectorOptions options = {});

  [[nodiscard]] const ChangeDetectorOptions& options() const noexcept {
    return options_;
  }

  /// Step 1 of detection: the baseline's peaks (options().peaks) and
  /// their windows on the baseline's grid.
  [[nodiscard]] DetectionWindows prepare(
      const AngularSpectrum& baseline) const;

  /// Step 2: every prepared peak whose power dropped by at least
  /// min_drop_fraction. `online[k]` is the online power at
  /// `prepared.bins[k]` (throws std::invalid_argument on a size
  /// mismatch).
  [[nodiscard]] std::vector<PathDrop> detect(
      const DetectionWindows& prepared, std::span<const double> online) const;

  /// Both steps on full spectra. Spectra must have equal size (throws
  /// std::invalid_argument otherwise).
  [[nodiscard]] std::vector<PathDrop> detect(
      const AngularSpectrum& baseline, const AngularSpectrum& online) const;

  /// Max power in `spectrum` within +/- angle_window of theta. The
  /// window is clamped to the grid and always contains the bin nearest
  /// theta, so an edge-of-grid peak reads its own power rather than an
  /// empty-window 0.0.
  [[nodiscard]] double windowed_power(const AngularSpectrum& spectrum,
                                      double theta) const;

 private:
  /// The clamped bin range [lo, hi] that the window around theta reads.
  [[nodiscard]] std::pair<std::size_t, std::size_t> window_bins(
      const AngularSpectrum& spectrum, double theta) const;

  ChangeDetectorOptions options_;
};

}  // namespace dwatch::core
