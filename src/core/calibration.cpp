#include "core/calibration.hpp"

#include <cmath>
#include <stdexcept>

#include "core/covariance.hpp"
#include "linalg/hermitian_eig.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"
#include "rf/array.hpp"
#include "rf/constants.hpp"
#include "rf/geometry.hpp"

namespace dwatch::core {

WirelessCalibrator::WirelessCalibrator(double spacing, double lambda,
                                       CalibrationOptions options)
    : spacing_(spacing), lambda_(lambda), options_(options) {
  if (spacing_ <= 0.0 || lambda_ <= 0.0) {
    throw std::invalid_argument("WirelessCalibrator: bad spacing/lambda");
  }
}

double WirelessCalibrator::objective(
    std::span<const linalg::CMatrix> noise_subspaces,
    std::span<const double> los_angles,
    std::span<const double> offsets_tail) const {
  if (noise_subspaces.size() != los_angles.size() ||
      noise_subspaces.empty()) {
    throw std::invalid_argument("calibration objective: size mismatch");
  }
  const std::size_t m = noise_subspaces.front().rows();
  std::vector<linalg::CVector> steerings;
  steerings.reserve(los_angles.size());
  for (const double theta : los_angles) {
    steerings.push_back(rf::steering_vector(m, theta, spacing_, lambda_));
  }
  return objective_precomputed(noise_subspaces, steerings, offsets_tail);
}

double WirelessCalibrator::objective_precomputed(
    std::span<const linalg::CMatrix> noise_subspaces,
    std::span<const linalg::CVector> steerings,
    std::span<const double> offsets_tail) const {
  if (noise_subspaces.size() != steerings.size() || noise_subspaces.empty()) {
    throw std::invalid_argument("calibration objective: size mismatch");
  }
  const std::size_t m = noise_subspaces.front().rows();
  if (offsets_tail.size() + 1 != m) {
    throw std::invalid_argument("calibration objective: bad offset count");
  }

  // g = Gamma a (beta_1 = 0), identical for every noise column, so the
  // per-element phasors are applied once per measurement rather than
  // once per (column, element) pair.
  std::vector<linalg::Complex> g(m);
  double total = 0.0;
  for (std::size_t k = 0; k < noise_subspaces.size(); ++k) {
    const linalg::CMatrix& un = noise_subspaces[k];
    const linalg::CVector& a = steerings[k];
    if (a.size() != m) {
      throw std::invalid_argument("calibration objective: bad steering size");
    }
    for (std::size_t i = 0; i < m; ++i) {
      const double beta = i == 0 ? 0.0 : offsets_tail[i - 1];
      g[i] = a[i] * std::polar(1.0, beta);
    }
    // Accumulate ||g^H U_N||^2.
    for (std::size_t q = 0; q < un.cols(); ++q) {
      linalg::Complex dot{};
      for (std::size_t i = 0; i < m; ++i) {
        dot += std::conj(g[i]) * un(i, q);
      }
      total += std::norm(dot);
    }
  }
  return total / static_cast<double>(noise_subspaces.size());
}

CalibrationProbe WirelessCalibrator::make_probe(
    std::span<const CalibrationMeasurement> measurements) const {
  if (measurements.empty()) {
    throw std::invalid_argument("calibrate: no measurements");
  }
  const std::size_t m = measurements.front().snapshots.rows();
  if (m < 2) {
    throw std::invalid_argument("calibrate: need >= 2 antennas");
  }

  // Extract the noise subspace of each measurement's UNsmoothed
  // correlation. Smoothing would scramble Gamma across subarrays, so it
  // must not be used here; coherent multipath keeps the signal subspace
  // 1-dimensional anyway. The steering vectors depend only on the fixed
  // LOS angles, so they are built once per probe, not per objective call.
  CalibrationProbe probe;
  probe.noise_subspaces.reserve(measurements.size());
  probe.steerings.reserve(measurements.size());
  for (const auto& meas : measurements) {
    if (meas.snapshots.rows() != m) {
      throw std::invalid_argument("calibrate: inconsistent antenna count");
    }
    const linalg::CMatrix r = sample_correlation(meas.snapshots);
    const linalg::EigenDecomposition eig = linalg::hermitian_eig(r);
    SourceCountOptions sc = options_.source_count;
    sc.num_snapshots = meas.snapshots.cols();
    const std::size_t p = estimate_source_count(eig.eigenvalues, sc);
    probe.noise_subspaces.push_back(eig.eigenvectors.block(0, p, m, m - p));
    probe.steerings.push_back(
        rf::steering_vector(m, meas.los_angle, spacing_, lambda_));
  }
  return probe;
}

double WirelessCalibrator::residual(const CalibrationProbe& probe,
                                    std::span<const double> offsets) const {
  if (probe.noise_subspaces.empty()) {
    throw std::invalid_argument("residual: empty probe");
  }
  const std::size_t m = probe.noise_subspaces.front().rows();
  if (offsets.size() != m) {
    throw std::invalid_argument("residual: offset count mismatch");
  }
  // The objective fixes beta_1 = 0, so rebase onto element 0.
  std::vector<double> tail(m - 1);
  for (std::size_t i = 1; i < m; ++i) {
    tail[i - 1] = rf::wrap_pi(offsets[i] - offsets[0]);
  }
  return objective_precomputed(probe.noise_subspaces, probe.steerings, tail);
}

CalibrationResult WirelessCalibrator::calibrate(
    std::span<const CalibrationMeasurement> measurements,
    rf::Rng& rng) const {
  DWATCH_SPAN("calibration.solve");
  const CalibrationProbe probe = make_probe(measurements);
  const std::size_t m = probe.noise_subspaces.front().rows();
  const Objective f = [&](std::span<const double> tail) {
    return objective_precomputed(probe.noise_subspaces, probe.steerings,
                                 tail);
  };
  const std::vector<double> lo(m - 1, -rf::kPi);
  const std::vector<double> hi(m - 1, rf::kPi);
  const OptResult opt = hybrid_minimize(f, lo, hi, options_.optimizer, rng);

  CalibrationResult result;
  result.offsets.resize(m, 0.0);
  for (std::size_t i = 1; i < m; ++i) {
    result.offsets[i] = rf::wrap_pi(opt.x[i - 1]);
  }
  result.residual = opt.value;
  result.evaluations = opt.evaluations;
  if (obs::enabled()) {
    obs::EventLog::global().emit(
        obs::Event("calibration.solve")
            .field("elements", m)
            .field("measurements", measurements.size())
            .field("residual", result.residual)
            .field("evaluations", result.evaluations));
  }
  return result;
}

void apply_phase_correction(linalg::CMatrix& x,
                            std::span<const double> offsets) {
  if (offsets.size() != x.rows()) {
    throw std::invalid_argument("apply_phase_correction: size mismatch");
  }
  apply_phase_correction(x, correction_phasors(offsets));
}

std::vector<linalg::Complex> correction_phasors(
    std::span<const double> offsets) {
  std::vector<linalg::Complex> phasors;
  phasors.reserve(offsets.size());
  for (const double offset : offsets) {
    phasors.push_back(std::polar(1.0, -offset));
  }
  return phasors;
}

void apply_phase_correction(linalg::CMatrix& x,
                            std::span<const linalg::Complex> phasors) {
  if (phasors.size() != x.rows()) {
    throw std::invalid_argument("apply_phase_correction: size mismatch");
  }
  for (std::size_t m = 0; m < x.rows(); ++m) {
    const linalg::Complex w = phasors[m];
    for (std::size_t n = 0; n < x.cols(); ++n) {
      x(m, n) *= w;
    }
  }
}

double mean_phase_error(std::span<const double> estimated,
                        std::span<const double> truth) {
  if (estimated.size() != truth.size() || estimated.size() < 2) {
    throw std::invalid_argument("mean_phase_error: size mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 1; i < estimated.size(); ++i) {
    sum += std::abs(rf::wrap_pi(estimated[i] - truth[i]));
  }
  return sum / static_cast<double>(estimated.size() - 1);
}

}  // namespace dwatch::core
