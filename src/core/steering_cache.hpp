// Cached steering manifolds: the M x G matrix A = [a(theta_1) ...
// a(theta_G)] over the angular grid, precomputed once per array
// geometry.
//
// Every spectrum evaluation (MUSIC Eq. 8, P-MUSIC Eq. 13) and every
// calibration objective probe (Eq. 11) needs a(theta) at the same grid
// of angles for the same (elements, spacing, lambda); regenerating the
// steering vector per angle costs one std::polar (sin+cos) per element
// per grid point plus a heap allocation, and dominated the per-spectrum
// hot path. The manifold is immutable once built, so one copy is shared
// process-wide behind a shared_ptr and concurrent readers need no
// locking (the cache lookup itself is mutex-protected).
//
// Keying uses exact double equality on (spacing, lambda): callers pass
// the same UniformLinearArray-derived values every time, so bitwise
// identity is the correct notion of "same geometry" — no epsilon
// matching, no false sharing between nearly-equal arrays.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "core/spectrum.hpp"
#include "linalg/soa_complex.hpp"

namespace dwatch::core {

/// Immutable steering matrix over the uniform [0, pi] grid used by
/// AngularSpectrum: column i is a(theta_i) for an `elements`-element ULA.
class SteeringManifold {
 public:
  /// Builds the full M x G manifold eagerly. Throws std::invalid_argument
  /// on elements < 1, grid_points < 2 or non-positive spacing/lambda.
  SteeringManifold(std::size_t elements, double spacing, double lambda,
                   std::size_t grid_points);

  [[nodiscard]] std::size_t elements() const noexcept { return soa_.rows(); }
  [[nodiscard]] std::size_t grid_points() const noexcept {
    return soa_.cols();
  }
  [[nodiscard]] double spacing() const noexcept { return spacing_; }
  [[nodiscard]] double lambda() const noexcept { return lambda_; }

  /// The manifold A in split re/im (SoA) layout for the SIMD kernels:
  /// elements x grid_points, column i = a(theta_at(i)).
  [[nodiscard]] const linalg::SplitComplexMatrix& soa() const noexcept {
    return soa_;
  }

  /// ||a(theta_i)||^2 per grid column, precomputed once. The
  /// truncated-EVD spectrum path subtracts the signal projection from
  /// these (complement identity) instead of forming the noise subspace.
  [[nodiscard]] const std::vector<double>& column_norms() const noexcept {
    return column_norms_;
  }

  /// Grid angle of column i (identical to AngularSpectrum::theta_at for
  /// a spectrum of the same size).
  [[nodiscard]] double theta_at(std::size_t i) const noexcept {
    return rf::kPi * static_cast<double>(i) /
           static_cast<double>(soa_.cols() - 1);
  }

 private:
  double spacing_;
  double lambda_;
  linalg::SplitComplexMatrix soa_;
  std::vector<double> column_norms_;
};

/// Process-wide cache of steering manifolds keyed by
/// (elements, spacing, lambda, grid_points). Thread-safe; returned
/// manifolds are immutable and may be read concurrently without
/// synchronization.
class SteeringCache {
 public:
  /// The singleton instance shared by all estimators.
  static SteeringCache& instance();

  /// The manifold for this geometry, building it on first request.
  [[nodiscard]] std::shared_ptr<const SteeringManifold> get(
      std::size_t elements, double spacing, double lambda,
      std::size_t grid_points);

  /// Number of distinct manifolds currently cached.
  [[nodiscard]] std::size_t size() const;

  /// Drop all cached manifolds (outstanding shared_ptrs stay valid).
  void clear();

 private:
  using Key = std::tuple<std::size_t, double, double, std::size_t>;

  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const SteeringManifold>> manifolds_;
};

}  // namespace dwatch::core
