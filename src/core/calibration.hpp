// Wireless phase calibration (paper Section 4.1).
//
// Each RF chain adds a random phase offset beta_m; with offsets the array
// model becomes X = Gamma A S + n, Gamma = diag(1, e^{j db_2}, ...,
// e^{j db_M}). ArrayTrack removes Gamma with a wired splitter (requires
// unplugging antennas); D-Watch instead deploys K tags with KNOWN direct
// path angles and exploits subspace orthogonality: when Gamma is removed
// correctly, a(theta_LoS)^H Gamma^H U_N ~ 0. The offsets are found by
// minimizing
//
//   sum_k || a(theta_LoS^(k))^H Gamma^H U_N^(k) ||^2      (Eq. 11)
//
// with a hybrid GA + gradient-descent optimizer. Measurements are taken
// during NORMAL tag traffic — no link interruption, no human in the loop.
//
// Note the paper's footnote: tag locations are needed ONLY here, never
// for localization.
#pragma once

#include <span>
#include <vector>

#include "core/optimizer.hpp"
#include "core/source_count.hpp"
#include "linalg/complex_matrix.hpp"
#include "rf/noise.hpp"

namespace dwatch::core {

/// One calibration tag's data: snapshots + its known LoS angle.
struct CalibrationMeasurement {
  linalg::CMatrix snapshots;  ///< M x N, uncalibrated
  double los_angle = 0.0;     ///< true direct-path AoA [rad]
};

struct CalibrationOptions {
  /// Model-order rule for extracting U_N per measurement. Calibration
  /// tags are placed with a dominant LoS (paper footnote 1), so the
  /// signal subspace is usually 1-dimensional.
  SourceCountOptions source_count;
  HybridOptions optimizer;
};

struct CalibrationResult {
  /// Estimated offsets beta_m [rad], size M; element 0 is 0 (reference).
  std::vector<double> offsets;
  /// Objective value at the solution (residual subspace leakage).
  double residual = 0.0;
  std::size_t evaluations = 0;
};

/// Per-measurement noise subspaces and LoS steering vectors, extracted
/// once from a set of anchor-tag measurements and reusable across many
/// residual evaluations. The drift watchdog re-scores the SAME anchors
/// every epoch and a recalibration compares the incumbent and candidate
/// offsets on ONE probe, so the eigendecompositions are hoisted out of
/// the scoring path.
struct CalibrationProbe {
  std::vector<linalg::CMatrix> noise_subspaces;  ///< U_N per measurement
  std::vector<linalg::CVector> steerings;        ///< a(theta_LoS) per meas.
};

/// The calibrator for one array geometry.
class WirelessCalibrator {
 public:
  /// Throws std::invalid_argument on bad spacing/lambda.
  WirelessCalibrator(double spacing, double lambda,
                     CalibrationOptions options = {});

  /// Estimate offsets from >= 1 measurements (more tags => better, paper
  /// Fig. 9). All snapshot matrices must share the same M >= 2. Throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] CalibrationResult calibrate(
      std::span<const CalibrationMeasurement> measurements,
      rf::Rng& rng) const;

  /// Extract the noise subspaces + LoS steering vectors of a measurement
  /// set (the expensive half of calibrate(), shared with residual
  /// scoring). Same validation rules as calibrate().
  [[nodiscard]] CalibrationProbe make_probe(
      std::span<const CalibrationMeasurement> measurements) const;

  /// The Eq. 11 residual of a FULL size-M offset vector against a probe
  /// — the calibration-drift score `sum_k ||a^H Gamma^H U_N^(k)||^2`
  /// tracked by the recovery watchdog. Only offset differences to the
  /// reference element matter, so absolute (reader-supplied) and
  /// relative (calibrate()-estimated) offset vectors score identically.
  [[nodiscard]] double residual(const CalibrationProbe& probe,
                                std::span<const double> offsets) const;

  /// The calibration objective (Eq. 11) for externally-supplied noise
  /// subspaces; exposed for testing and for the Phaser-comparison bench.
  /// Regenerates a(theta_LoS) per call; the calibrate() hot loop instead
  /// precomputes the steering vectors once per solve and uses
  /// objective_precomputed().
  [[nodiscard]] double objective(
      std::span<const linalg::CMatrix> noise_subspaces,
      std::span<const double> los_angles,
      std::span<const double> offsets_tail) const;

  /// objective() with the K LoS steering vectors already evaluated
  /// (steerings[k] = a(theta_LoS^(k))). The optimizer probes this
  /// thousands of times per solve, so the trigonometric steering
  /// generation is hoisted out of the probe path.
  [[nodiscard]] double objective_precomputed(
      std::span<const linalg::CMatrix> noise_subspaces,
      std::span<const linalg::CVector> steerings,
      std::span<const double> offsets_tail) const;

 private:
  double spacing_;
  double lambda_;
  CalibrationOptions options_;
};

/// Apply a phase correction to snapshots in place: row m of `x` is
/// multiplied by e^{-j offsets[m]} (undoing Gamma). Throws
/// std::invalid_argument on size mismatch.
void apply_phase_correction(linalg::CMatrix& x,
                            std::span<const double> offsets);

/// The row multipliers apply_phase_correction uses: e^{-j offsets[m]}.
[[nodiscard]] std::vector<linalg::Complex> correction_phasors(
    std::span<const double> offsets);

/// apply_phase_correction with the phasors precomputed: row m of `x` is
/// multiplied by phasors[m]. Throws std::invalid_argument on size
/// mismatch.
void apply_phase_correction(linalg::CMatrix& x,
                            std::span<const linalg::Complex> phasors);

/// Mean absolute wrapped phase error between two offset vectors,
/// ignoring the reference element 0. Sizes must match.
[[nodiscard]] double mean_phase_error(std::span<const double> estimated,
                                      std::span<const double> truth);

}  // namespace dwatch::core
